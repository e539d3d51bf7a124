// Package snapshot is the serialization codec for paused Stopify guests: it
// encodes the reachable Value graph of a quiescent run — saved continuation
// frames, environment chains, objects with their shapes, closures, pending
// timers — into a self-contained blob, and decodes such a blob into a fresh
// realm built from the same compiled program.
//
// The codec leans on three deterministic structures shared by the encoding
// and decoding realms:
//
//   - the code table: function and scope-layout IDs assigned by a pre-order
//     walk of the compiled program (the compile pipeline is deterministic,
//     so recompiling the embedded source in another process yields the same
//     walk); closures serialize as (function ID, environment ref);
//   - the host registry: every host object reachable from the realm's
//     globals *before* the prelude runs, named by a deterministic
//     traversal path ("Object.prototype.hasOwnProperty", "%$suspend", ...);
//     natives serialize as registry ordinals and re-link on restore, and
//     guest mutations of host objects serialize as deltas against a
//     pristine twin realm;
//   - the event loop's queue (eventloop.Loop.Pending): each pending task as
//     its due offset and the descriptor it was posted with — an
//     *interp.Timer under its handle, or an *rt.Resume.
//
// Bound functions and Date instances are data-backed (interp.BoundFunction
// / interp.DateData) and serialize as first-class node kinds since wire v2.
// Anything outside those structures — a native created at runtime, a
// closure over eval-compiled code, an event-loop task posted without a
// descriptor (a Blocking resume, a debugger park) — has no serializable identity,
// and encoding fails with a typed *PinError naming the obstruction instead
// of corrupting state.
package snapshot

import "fmt"

// Version is the wire-format version byte the encoder writes and the only one
// the decoder accepts: the payload is raw graph structure — since 4, frames
// of [label, fn, self, saved…] — and guessing across versions corrupts realms.
const Version = 4

// magic prefixes every blob.
var magic = [4]byte{'S', 'N', 'A', 'P'}

// Pin-reason kinds, the coarse taxonomy behind PinError.Kind. The
// supervisor counts parks blocked per kind, so the effect of shrinking the
// pin set is measurable (metrics.go park_pins_by_reason).
const (
	PinMode     = "mode"     // mid capture/restore, atomic section, or live native stack
	PinTask     = "task"     // event-loop task posted without a descriptor
	PinRegistry = "registry" // host registry diverged, or an uncopyable output sink
	PinNative   = "native"   // runtime-created native with no registry identity
	PinEval     = "eval"     // closure or frame over eval-compiled code
	PinHost     = "host"     // object carrying an opaque host payload
	PinInternal = "internal" // engine-internal value reachable from guest state
)

// PinError reports that a guest's live state contains something the codec
// cannot serialize — the guest is "pinned" in memory. The run itself is
// unharmed: Snapshot is read-only, and a pinned guest keeps executing.
type PinError struct {
	// Kind is the coarse pin taxonomy (the Pin* constants).
	Kind string
	// Reason names the non-serializable obstruction.
	Reason string
}

// Error implements error.
func (e *PinError) Error() string { return "snapshot: guest pinned: " + e.Reason }

// pinf builds a PinError.
func pinf(kind, format string, args ...interface{}) error {
	return &PinError{Kind: kind, Reason: fmt.Sprintf(format, args...)}
}

// corruptf reports a malformed or mismatched blob.
func corruptf(format string, args ...interface{}) error {
	return fmt.Errorf("snapshot: corrupt blob: "+format, args...)
}
