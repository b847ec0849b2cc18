// Package directivefix seeds the two directive mistakes that would switch a
// check off without a word: a name no rule claims, and a directive anywhere
// but a function's doc comment. Correct directives stay silent.
package directivefix

// sum is marked correctly: no finding.
//
//rased:hotpath
func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// write carries two claimed directives: no finding.
//
//rased:pagewrite
//rased:errsink
func write() {}

// typo misspells hotpath, so hotalloc would never look at it.
//
//rased:hotpth // want "unknown directive //rased:hotpth"
func typo() {}

// T is a type: no rule reads a type's doc comment.
//
//rased:hotpath // want "//rased:hotpath is read only from a function's doc comment"
type T struct{}

func inBody() {
	//rased:callerdeadline // want "//rased:callerdeadline is read only from a function's doc comment"
	_ = 0
}
