// Fixture for the epochsafe rule: loaded under the real import path
// rased/internal/tindex so the scope check applies. The audited swap sites
// carry //rased:pagewrite.
package tindex

// pager is the fixture's stand-in for the page store interface.
type pager interface {
	WritePage(page int, buf []byte) error
	Append(buf []byte) (int, error)
}

// Index is the fixture's stand-in for the temporal index.
type Index struct {
	store pager
}

// writeCube is an audited swap site: no finding.
//
//rased:pagewrite
func (ix *Index) writeCube(page int, buf []byte) error {
	return ix.store.WritePage(page, buf)
}

// writeScratch is an audited swap site: no finding.
//
//rased:pagewrite
func (ix *Index) writeScratch(buf []byte) (int, error) {
	return ix.store.Append(buf)
}

// sneakyRepair rewrites a page outside the audited swap sites.
func (ix *Index) sneakyRepair(page int, buf []byte) error {
	return ix.store.WritePage(page, buf) // want "sneakyRepair calls WritePage outside the audited swap sites"
}

// growUnaudited appends a page outside the audited swap sites, even though it
// routes through a closure.
func growUnaudited(p pager, buf []byte) (int, error) {
	grow := func() (int, error) {
		return p.Append(buf) // want "growUnaudited calls Append outside the audited swap sites"
	}
	return grow()
}

// appendDays uses the builtin append: not a page write, no finding.
func appendDays(days []int, d int) []int {
	return append(days, d)
}

// delegate calls an audited site without touching the store itself: the
// rule audits direct page writes, so no finding.
func delegate(ix *Index, buf []byte) (int, error) {
	return ix.writeScratch(buf)
}
