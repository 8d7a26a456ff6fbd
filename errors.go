package probequorum

import "fmt"

// UnsupportedError reports a capability gap: a façade entry point was
// asked for something the given system does not implement. It joins
// BoundError, BudgetError and PanicError as a typed façade error, so
// callers branch with errors.As instead of string matching.
type UnsupportedError struct {
	// What is the missing capability ("strategy", "renderer", ...).
	What string
	// Name is the system's Name().
	Name string
	// Hint is the interface to implement ("Prober or Finder", ...).
	Hint string
}

func (e *UnsupportedError) Error() string {
	return "probequorum: no " + e.What + " for " + e.Name + " (implement " + e.Hint + ")"
}

// QueryError reports an invalid query, batch, or cell stream: the
// request was malformed before any evaluation started, so retrying it
// unchanged cannot succeed. Callers detect the class with errors.As.
type QueryError struct {
	// Msg describes the defect, without the "probequorum: " prefix.
	Msg string
}

func (e *QueryError) Error() string { return "probequorum: " + e.Msg }

// queryErrorf builds a *QueryError the way fmt.Errorf would spell it.
func queryErrorf(format string, args ...any) error {
	return &QueryError{Msg: fmt.Sprintf(format, args...)}
}
