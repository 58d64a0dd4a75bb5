package store_test

import (
	"path/filepath"
	"testing"

	"repro/internal/auvm"
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

// TestEnsureFormat pins the format stamp of a file store across reopens:
// auvm.UpgradeStore stamps a fresh file "3", leaves a current one as it
// is, upgrades and stamps a format-1 one so the daemon that wrote it
// refuses it from then on, and refuses a future one without restamping.
func TestEnsureFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "format.db")
	// ensure opens the file, puts kv, runs the format check and reports
	// it with the stamp the file holds after a reopen.
	ensure := func(kv map[string]string) (string, error) {
		t.Helper()
		s, _, err := store.Open(store.Config{Backend: store.BackendFile, Path: path})
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range kv {
			if err := s.Put(k, []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
		ensureErr := auvm.UpgradeStore(s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, _, err = store.Open(store.Config{Backend: store.BackendFile, Path: path})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		v, err := s.Get(store.KeyFormat)
		if err != nil {
			t.Fatalf("format key: %v", err)
		}
		return string(v), ensureErr
	}
	if got, err := ensure(nil); err != nil || got != "3" {
		t.Fatalf("fresh file: stamped %q, %v; want 3, nil", got, err)
	}
	if got, err := ensure(nil); err != nil || got != "3" {
		t.Fatalf("current file: stamped %q, %v; want 3, nil", got, err)
	}
	if got, err := ensure(map[string]string{store.KeyFormat: "1", "s:rod:00000001": "{}"}); err != nil || got != "3" {
		t.Fatalf("format-1 file: stamped %q, %v; want 3, nil", got, err)
	}
	for _, future := range []string{"4", "99"} {
		got, err := ensure(map[string]string{store.KeyFormat: future})
		if want := `store: format version "` + future + `" not supported (want "3")`; err == nil || err.Error() != want {
			t.Fatalf("format %s = %v, want %s", future, err, want)
		}
		if got != future {
			t.Fatalf("a refused file was restamped %q", got)
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
