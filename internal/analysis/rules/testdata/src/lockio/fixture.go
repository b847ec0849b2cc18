// Package lockiofix seeds blocking work directly under a held lock — the
// lock-held I/O once fixed in pagestore — plus the allowed patterns
// (snapshot under lock, I/O outside it). The lockorder rule checks it.
package lockiofix

import (
	"os"
	"sync"
	"time"
)

type store struct {
	mu sync.Mutex
	rw sync.RWMutex
	f  *os.File
	ch chan int
	n  int
}

func (s *store) deferred(buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Millisecond) // want "time.Sleep while fix/lockio.store.mu is held"
	_, err := s.f.ReadAt(buf, 0) // want "ReadAt disk I/O"
	s.ch <- 1                    // want "channel send"
	return err
}

func (s *store) explicit(path string) error {
	s.mu.Lock()
	f, err := os.Open(path) // want "os.Open file I/O"
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return f.Close()
}

func (s *store) readLocked(buf []byte) error {
	s.rw.RLock()
	_, err := s.f.WriteAt(buf, 0) // want "WriteAt"
	s.rw.RUnlock()
	return err
}

func (s *store) snapshotThenIO(buf []byte) error {
	s.mu.Lock()
	n := s.n
	s.mu.Unlock()
	_, err := s.f.ReadAt(buf, int64(n)) // lock released: ok
	return err
}

func (s *store) earlyReturn(buf []byte) error {
	s.mu.Lock()
	if s.n == 0 {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	_, err := s.f.WriteAt(buf, 0) // released on every path: ok
	return err
}

func (s *store) syncUnderLock() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Sync() // want "Sync"
}

func (s *store) goroutineNotHeld() {
	s.mu.Lock()
	go func() {
		s.ch <- 2 // runs outside the critical section: ok
	}()
	s.mu.Unlock()
}

func noLock(path string) error {
	_, err := os.Stat(path) // no lock held: ok
	return err
}
