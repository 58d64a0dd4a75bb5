package fault

import (
	"repro/internal/store"
)

// Inner returns the wrapped store.
func (s *Store) Inner() store.Conditional { return s.inner }
