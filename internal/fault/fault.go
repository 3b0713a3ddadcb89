// Package fault defines the exception values that flow through the
// failatomic runtime.
//
// Go has no exceptions; the reproduction models them as panics carrying
// *Exception values. A method "throws" by calling Throw (or panicking with
// an *Exception), and "declares" its exceptions by registering the Kinds it
// may raise. The injection engine additionally raises generic runtime kinds
// (RuntimeError, OutOfMemory) in any method, mirroring the paper's
// undeclared runtime exceptions.
package fault

import (
	"fmt"
	"runtime"
	"strings"
)

// Kind names an exception type. Applications define their own kinds; the
// runtime kinds below can be raised by any method.
type Kind string

// Generic runtime kinds, injectable into every method (the analog of Java's
// undeclared RuntimeException/Error hierarchy).
const (
	RuntimeError Kind = "RuntimeError"
	OutOfMemory  Kind = "OutOfMemory"
)

// Common declared kinds shared by the bundled applications.
const (
	IndexOutOfBounds Kind = "IndexOutOfBounds"
	IllegalElement   Kind = "IllegalElement"
	NoSuchElement    Kind = "NoSuchElement"
	IllegalArgument  Kind = "IllegalArgument"
	IllegalState     Kind = "IllegalState"
	CapacityExceeded Kind = "CapacityExceeded"
	ParseError       Kind = "ParseError"
	IOError          Kind = "IOError"
)

// RuntimeKinds is the default set of undeclared kinds the injector raises in
// every method on top of the method's declared kinds.
func RuntimeKinds() []Kind {
	return []Kind{RuntimeError, OutOfMemory}
}

// Exception is the value carried by a panic that models a thrown exception.
type Exception struct {
	// Kind is the exception type.
	Kind Kind
	// Method is the "Class.Method" name the exception originated in.
	Method string
	// Msg is the human-readable detail message.
	Msg string
	// Injected reports whether the exception was raised by the injection
	// engine rather than by application logic.
	Injected bool
	// Point is the global injection-point counter value at which the
	// exception was injected (0 for organic exceptions).
	Point int
	// Foreign reports that the recovered panic value was not an
	// *Exception — a crash (nil dereference, index out of range, an
	// explicit panic with a foreign value) wrapped for uniform handling.
	// The campaign supervisor treats foreign escapes as crashes to retry
	// and quarantine rather than as modeled exceptions.
	Foreign bool
	// Stack is a truncated, normalized stack captured when a foreign
	// panic was wrapped (empty otherwise): function names and file:line
	// only, newest frame first, so hung/quarantined-point reports are
	// triageable and deterministic workloads produce identical stacks
	// across processes (resume logs rely on that).
	Stack string
}

var _ error = (*Exception)(nil)

// Error implements the error interface.
func (e *Exception) Error() string {
	origin := e.Method
	if origin == "" {
		origin = "?"
	}
	tag := ""
	if e.Injected {
		tag = fmt.Sprintf(" [injected@%d]", e.Point)
	}
	if e.Msg == "" {
		return fmt.Sprintf("%s in %s%s", e.Kind, origin, tag)
	}
	return fmt.Sprintf("%s in %s: %s%s", e.Kind, origin, e.Msg, tag)
}

// Throw panics with a new organic (non-injected) Exception.
func Throw(kind Kind, method, format string, args ...any) {
	panic(&Exception{
		Kind:   kind,
		Method: method,
		Msg:    fmt.Sprintf(format, args...),
	})
}

// New returns an injected Exception for the given injection point.
func New(kind Kind, method string, point int) *Exception {
	return &Exception{
		Kind:     kind,
		Method:   method,
		Injected: true,
		Point:    point,
	}
}

// From converts an arbitrary recovered panic value into an *Exception.
// Foreign panics (index out of range, nil dereference, explicit panics with
// non-Exception values) are wrapped as RuntimeError, mirroring how the paper
// treats undeclared runtime exceptions; the wrapped Exception is marked
// Foreign and carries a truncated stack of the panic site for triage.
func From(r any) *Exception {
	if e, ok := r.(*Exception); ok {
		return e
	}
	msg := ""
	if err, ok := r.(error); ok {
		msg = err.Error()
	} else {
		msg = fmt.Sprint(r)
	}
	return &Exception{Kind: RuntimeError, Msg: msg, Foreign: true, Stack: capturedStack()}
}

// maxStackFrames bounds the stack captured for a foreign panic.
const maxStackFrames = 12

// capturedStack renders the current goroutine's stack for foreign-panic
// triage. It is called from inside a recover() while the panicked frames
// are still live, so the panic site is visible. Normalization keeps one
// "func (file:line)" entry per frame — goroutine ids, argument values and
// pc offsets are dropped — so a deterministic workload yields a
// byte-identical stack in every process, which crash-safe resume logs
// depend on.
func capturedStack() string {
	buf := make([]byte, 32<<10)
	n := runtime.Stack(buf, false)
	lines := strings.Split(strings.TrimRight(string(buf[:n]), "\n"), "\n")
	// lines[0] is "goroutine N [running]:"; frames follow as pairs of a
	// function line and an indented "file:line +0x..." location line.
	var frames []frame
	for i := 1; i+1 < len(lines); i += 2 {
		fn := lines[i]
		if strings.HasPrefix(fn, "created by ") {
			if j := strings.Index(fn, " in goroutine"); j > 0 {
				fn = fn[:j]
			}
		} else if j := strings.LastIndexByte(fn, '('); j > 0 {
			fn = fn[:j]
		}
		loc := strings.TrimSpace(lines[i+1])
		if j := strings.IndexByte(loc, ' '); j > 0 {
			loc = loc[:j]
		}
		if j := strings.LastIndexByte(loc, '/'); j >= 0 {
			loc = loc[j+1:]
		}
		frames = append(frames, frame{fn, loc})
	}
	// Start after the first panic marker (the most recent panic in
	// flight): everything above it — this function, From, the deferred
	// catcher, runtime.gopanic — is recovery plumbing, not the crash.
	start := 0
	for i, f := range frames {
		if panicFrame(f.fn) {
			start = i + 1
			break
		}
	}
	if start == 0 {
		// Not called during a panic: skip our own frames instead.
		for start < len(frames) && strings.HasPrefix(frames[start].fn, "failatomic/internal/fault.") {
			start++
		}
	}
	// Runtime panics put panicmem/sigpanic between gopanic and the
	// faulting frame, and a session exit handler that re-panicked sits
	// between its own panic marker and the earlier panic's; skip all of
	// them to the crash site.
	for start < len(frames) && (panicFrame(frames[start].fn) ||
		strings.HasPrefix(frames[start].fn, "runtime.") || toolFrame(frames[start])) {
		start++
	}
	// End at the first tool frame below the crash site: the campaign
	// driver and whatever called it (a CLI, the service, a test) are not
	// the workload, and keeping them would tie every recorded stack to the
	// tool's source layout and to the entry point that ran the campaign.
	end := start
	for end < len(frames) && end-start < maxStackFrames && !toolFrame(frames[end]) {
		end++
	}
	frames = frames[start:end]
	var b strings.Builder
	for i, f := range frames {
		if i > 0 {
			b.WriteString(" <- ")
		}
		b.WriteString(f.fn)
		b.WriteString(" (")
		b.WriteString(f.loc)
		b.WriteString(")")
	}
	return b.String()
}

// panicFrame reports whether fn marks a panic in flight.
func panicFrame(fn string) bool {
	return fn == "panic" || fn == "runtime.gopanic" || fn == "runtime.sigpanic"
}

// frame is one normalized stack entry: the function and its file:line.
type frame struct{ fn, loc string }

// toolFrame reports whether f belongs to the session runtime or the
// campaign driver rather than to the workload. Test files of those
// packages hold workloads, not tool code.
func toolFrame(f frame) bool {
	fn := strings.TrimPrefix(f.fn, "created by ")
	return (strings.HasPrefix(fn, "failatomic/internal/core.") ||
		strings.HasPrefix(fn, "failatomic/internal/inject.")) &&
		!strings.Contains(f.loc, "_test.go:")
}

// AsError recovers a panic value as an error. It is used by application
// entry points that convert exceptional termination into an error return
// ("exceptions should not cross package boundaries").
func AsError(r any) error {
	if r == nil {
		return nil
	}
	return From(r)
}
