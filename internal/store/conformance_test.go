package store_test

import (
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/store"
	"repro/internal/store/storetest"
)

// The conformance suite pins the Store contract against every
// implementation: MemStore, FileStore (with and without fsync-per-batch),
// CachedStore over each, a healthy degradation Guard, and the fault
// wrapper with its weather disarmed — a decorator must be invisible
// until it injects.
func conformanceStores(t *testing.T) map[string]func(t *testing.T) store.Store {
	openFile := func(t *testing.T, sync bool) *store.FileStore {
		s, err := store.OpenFileStoreWith(filepath.Join(t.TempDir(), "conf.db"), store.FileOpts{Sync: sync})
		if err != nil {
			t.Fatalf("open file store: %v", err)
		}
		return s
	}
	return map[string]func(t *testing.T) store.Store{
		"mem":       func(t *testing.T) store.Store { return store.NewMemStore() },
		"file":      func(t *testing.T) store.Store { return openFile(t, false) },
		"file-sync": func(t *testing.T) store.Store { return openFile(t, true) },
		"cached-mem": func(t *testing.T) store.Store {
			return store.NewCached(store.NewMemStore(), 8)
		},
		"cached-file": func(t *testing.T) store.Store {
			// A tiny cache bound forces eviction + backend refill paths.
			return store.NewCached(openFile(t, false), 2)
		},
		"cached-file-sync": func(t *testing.T) store.Store {
			return store.NewCached(openFile(t, true), 2)
		},
		"guard-mem": func(t *testing.T) store.Store {
			return store.NewGuard(store.NewMemStore(), store.GuardOpts{})
		},
		"fault-mem-disarmed": func(t *testing.T) store.Store {
			in := fault.NewInjector(1, fault.Rule{Fault: fault.Fault{Err: fault.ErrIO}})
			in.Disarm()
			return fault.NewStore(store.NewMemStore(), in)
		},
		"fault-file-disarmed": func(t *testing.T) store.Store {
			in := fault.NewInjector(1, fault.Rule{Fault: fault.Fault{Err: fault.ErrIO}})
			in.Disarm()
			return fault.NewStore(openFile(t, false), in)
		},
	}
}

func TestConformance(t *testing.T) {
	for name, open := range conformanceStores(t) {
		t.Run(name, func(t *testing.T) { storetest.Run(t, open) })
	}
}

func TestEnsureFormat(t *testing.T) {
	s := store.NewMemStore()
	defer s.Close()
	format := func() string {
		t.Helper()
		v, err := s.Get(store.KeyFormat)
		if err != nil {
			t.Fatalf("format key: %v", err)
		}
		return string(v)
	}
	if err := store.EnsureFormat(s); err != nil {
		t.Fatalf("EnsureFormat on fresh store: %v", err)
	}
	if store.FormatVersion != "2" || format() != "2" {
		t.Fatalf("fresh store stamped %q, FormatVersion %q; want 2", format(), store.FormatVersion)
	}
	if err := store.EnsureFormat(s); err != nil {
		t.Fatalf("EnsureFormat idempotent: %v", err)
	}
	// A format-1 store opens and is stamped, so the daemon that wrote it
	// refuses it from now on.
	s.Put(store.KeyFormat, []byte("1"))
	if err := store.EnsureFormat(s); err != nil {
		t.Fatalf("EnsureFormat on a format-1 store: %v", err)
	}
	if format() != "2" {
		t.Fatalf("format-1 store left at %q, want it stamped 2", format())
	}
	for _, future := range []string{"3", "99"} {
		s.Put(store.KeyFormat, []byte(future))
		err := store.EnsureFormat(s)
		if want := `store: format version "` + future + `" not supported (want "2")`; err == nil || err.Error() != want {
			t.Fatalf("EnsureFormat on format %s = %v, want %s", future, err, want)
		}
		if format() != future {
			t.Fatalf("a refused store was restamped %q", format())
		}
	}
}

func TestOpenConfig(t *testing.T) {
	if s, file, err := store.Open(store.Config{}); err != nil {
		t.Fatalf("Open default: %v", err)
	} else if _, ok := s.(*store.MemStore); !ok || file != nil {
		t.Fatalf("Open default = %T (file handle %v), want *MemStore and none", s, file)
	}
	path := filepath.Join(t.TempDir(), "x.db")
	s, file, err := store.Open(store.Config{Backend: store.BackendFile, Path: path, Sync: true})
	if err != nil {
		t.Fatalf("Open file: %v", err)
	}
	if s != store.Conditional(file) {
		t.Fatalf("Open file = %T, file handle %p: want the same store", s, file)
	}
	s.Close()
	if _, _, err := store.Open(store.Config{Backend: store.BackendFile}); err == nil {
		t.Fatal("Open file without path succeeded")
	}
	if _, _, err := store.Open(store.Config{Backend: "bolt"}); err == nil {
		t.Fatal("Open unknown backend succeeded")
	}
	if got := (store.Config{}).BackendName(); got != store.BackendMem {
		t.Fatalf("BackendName() = %q", got)
	}
	// The Wrap hook decorates the backend before Open returns it.
	wrapped, _, err := store.Open(store.Config{Wrap: func(s store.Conditional) store.Conditional {
		return store.NewGuard(s, store.GuardOpts{})
	}})
	if err != nil {
		t.Fatalf("Open with Wrap: %v", err)
	}
	if _, ok := wrapped.(*store.Guard); !ok {
		t.Fatalf("Open with Wrap = %T, want *Guard", wrapped)
	}
	wrapped.Close()
}
