package store

import "fmt"

// Backend names accepted by Config.Backend (the -store flag values).
const (
	// BackendMem keeps everything in process memory: fast, and gone on
	// exit.  The default, and the pre-durability behaviour.
	BackendMem = "mem"
	// BackendFile persists to a single append-only log file with an
	// in-memory index, compacted on open.
	BackendFile = "file"
)

// Config selects and parameterizes a backend, in the style of neo-go's
// dbconfig: one small struct a binary can fill from flags and hand to
// Open.
type Config struct {
	// Backend is BackendMem or BackendFile.  Empty means BackendMem.
	Backend string
	// Path is the store file for BackendFile; ignored for BackendMem.
	Path string
	// Sync makes the file backend fsync after every Batch (the
	// -store-sync flag).  Off by default: the log's CRC framing already
	// makes a crash lose at most the unsynced tail, never corrupt it,
	// and fsync-per-batch costs orders of magnitude in throughput.
	Sync bool
	// Shared opens the file backend in multi-process mode: no
	// truncation or compaction at open, an exclusive file lock around
	// every append, and Refresh/Seal available for followers and
	// takeover.  The cluster layer sets it; single-daemon deployments
	// leave it off.
	Shared bool
	// Wrap, when non-nil, decorates the freshly opened backend before
	// anything else sees it.  It exists for fault injection: chaos tests
	// interpose internal/fault's store wrapper here, underneath the
	// degradation guard.
	Wrap func(Conditional) Conditional
}

// Open builds the configured backend and applies the Wrap hook.  file
// is the file backend's own handle underneath the hook (nil for the
// memory backend): the one layer with Refresh and Seal.  core.Open
// stacks the guard and, when clustered, the fence on s.
func Open(cfg Config) (s Conditional, file *FileStore, err error) {
	switch cfg.Backend {
	case "", BackendMem:
		s = NewMemStore()
	case BackendFile:
		if cfg.Path == "" {
			return nil, nil, fmt.Errorf("store: file backend needs a path")
		}
		file, err = OpenFileStoreWith(cfg.Path, FileOpts{Sync: cfg.Sync, Shared: cfg.Shared})
		if err != nil {
			return nil, nil, err
		}
		s = file
	default:
		return nil, nil, fmt.Errorf("store: unknown backend %q (want %s or %s)", cfg.Backend, BackendMem, BackendFile)
	}
	if cfg.Wrap != nil {
		s = cfg.Wrap(s)
	}
	return s, file, nil
}

// BackendName normalizes a Config's backend for display (the version
// verb and the wire Welcome envelope).
func (c Config) BackendName() string {
	if c.Backend == "" {
		return BackendMem
	}
	return c.Backend
}
