//go:build faultreg

package tindex

// FaultExercised declares this package's exported read paths that the
// fault-injection suite drives through internal/faultstore: fault_test.go
// covers retry absorption, typed give-up, quarantine, and pool balance under
// injected transient/permanent/corruption faults for each. The faultpath lint
// rule cross-checks this list against the package's exported Read*/Fetch*
// functions, so a new read path cannot land without declaring (and writing)
// its fault coverage. The faultreg build tag keeps the registry out of
// production builds.
var FaultExercised = []string{
	"Fetch",
	"FetchCtx",
	"FetchRunPooledCtx",
}
