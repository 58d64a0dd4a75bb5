package command

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/linalg"
)

// The parser the verb table replaced, moved here verbatim but for its
// functions' oracle prefix and its two name checks, which called
// linalg.HasBackend and linalg.HasPrecond and now spell out what those
// answered for a non-empty name: FuzzParse holds the table-driven Parse
// to it, command for command, and error text for error text but for the
// texts textChanges lists.

// oracleParse lexes and parses one command line into its typed Command.  A
// blank line or a # comment parses to (nil, nil).  Syntax errors wrap
// errs.ErrUsage; all name/object resolution is deferred to the interpreter.
func oracleParse(line string) (Command, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
		return nil, nil
	}
	verb := strings.ToLower(fields[0])
	args := fields[1:]
	switch verb {
	case "help":
		return Help{}, nil
	case "ping":
		if len(args) != 0 {
			return nil, usage("ping")
		}
		return Ping{}, nil
	case "stats":
		if len(args) != 0 {
			return nil, usage("stats")
		}
		return Stats{}, nil
	case "version":
		if len(args) != 0 {
			return nil, usage("version")
		}
		return Version{}, nil
	case "quit", "exit":
		return Quit{}, nil
	case "define":
		if len(args) != 2 || args[0] != "structure" {
			return nil, usage("define structure <name>")
		}
		return Define{Name: args[1]}, nil
	case "material":
		if len(args) != 4 {
			return nil, usage("material <E> <nu> <thickness> <area>")
		}
		vals, err := oracleFloats(args)
		if err != nil {
			return nil, err
		}
		return SetMaterial{E: vals[0], Nu: vals[1], T: vals[2], A: vals[3]}, nil
	case "generate":
		return oracleParseGenerate(args)
	case "node":
		if len(args) != 3 {
			return nil, usage("node <model> <x> <y>")
		}
		x, err1 := parseFinite(args[1])
		y, err2 := parseFinite(args[2])
		if err1 != nil || err2 != nil {
			return nil, usage("node coordinates must be numeric")
		}
		return AddNode{Model: args[0], X: x, Y: y}, nil
	case "element":
		return oracleParseElement(args)
	case "fix":
		if len(args) != 3 {
			return nil, usage("fix node|dof <model> <index>")
		}
		idx, err := strconv.Atoi(args[2])
		if err != nil {
			return nil, usage("fix index %q", args[2])
		}
		switch args[0] {
		case "node":
			return FixNode{Model: args[1], Node: idx}, nil
		case "dof":
			return FixDOF{Model: args[1], DOF: idx}, nil
		default:
			return nil, usage("fix node|dof")
		}
	case "loadset":
		if len(args) != 2 {
			return nil, usage("loadset <model> <name>")
		}
		return DefineLoadSet{Model: args[0], Set: args[1]}, nil
	case "load":
		return oracleParseLoad(args)
	case "solve":
		return oracleParseSolve(args)
	case "stresses":
		if len(args) != 1 {
			return nil, usage("stresses <model>")
		}
		return Stresses{Model: args[0]}, nil
	case "display":
		if len(args) != 2 {
			return nil, usage("display model|displacements|stresses <model>")
		}
		switch DisplayKind(args[0]) {
		case DisplayModel, DisplayDisplacements, DisplayStresses:
			return Display{What: DisplayKind(args[0]), Model: args[1]}, nil
		default:
			return nil, usage("display model|displacements|stresses")
		}
	case "store":
		if len(args) != 1 {
			return nil, usage("store <model>")
		}
		return Store{Model: args[0]}, nil
	case "retrieve":
		if len(args) != 1 {
			return nil, usage("retrieve <name>")
		}
		return Retrieve{Name: args[0]}, nil
	case "delete":
		if len(args) != 1 {
			return nil, usage("delete <name>")
		}
		return Delete{Name: args[0]}, nil
	case "list":
		if len(args) != 1 {
			return nil, usage("list db|workspace")
		}
		switch ListKind(args[0]) {
		case ListDB, ListWorkspace:
			return List{What: ListKind(args[0])}, nil
		default:
			return nil, usage("list db|workspace")
		}
	case "snapshot":
		if len(args) != 1 {
			return nil, usage("snapshot <file>")
		}
		return Snapshot{Path: args[0]}, nil
	case "restore":
		if len(args) != 1 {
			return nil, usage("restore <file>")
		}
		return Restore{Path: args[0]}, nil
	case "submit":
		return oracleParseSubmit(args)
	case "status":
		id, err := oracleJobID(args, "status <job>")
		if err != nil {
			return nil, err
		}
		return Status{ID: id}, nil
	case "wait":
		id, err := oracleJobID(args, "wait <job>")
		if err != nil {
			return nil, err
		}
		return Wait{ID: id}, nil
	case "cancel":
		id, err := oracleJobID(args, "cancel <job>")
		if err != nil {
			return nil, err
		}
		return Cancel{ID: id}, nil
	case "jobs":
		return oracleParseJobs(args)
	default:
		return nil, usage("unknown command %q (try help)", verb)
	}
}

// oracleParseGenerate parses the three generate sub-verbs.
func oracleParseGenerate(args []string) (Command, error) {
	if len(args) < 2 {
		return nil, usage("generate grid|truss|bar <name> ...")
	}
	kind, name := args[0], args[1]
	rest := args[2:]
	switch kind {
	case "grid":
		if len(rest) < 4 {
			return nil, usage("generate grid <name> <nx> <ny> <w> <h> [clamp-left] [jitter <frac> <seed>]")
		}
		nx, err1 := strconv.Atoi(rest[0])
		ny, err2 := strconv.Atoi(rest[1])
		w, err3 := parseFinite(rest[2])
		h, err4 := parseFinite(rest[3])
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return nil, usage("generate grid: numeric arguments required")
		}
		c := GenerateGrid{Name: name, NX: nx, NY: ny, W: w, H: h}
		for i := 4; i < len(rest); i++ {
			switch rest[i] {
			case "clamp-left":
				c.ClampLeft = true
			case "jitter":
				if i+2 >= len(rest) {
					return nil, usage("jitter <frac> <seed>")
				}
				f, err := parseFinite(rest[i+1])
				if err != nil {
					return nil, usage("jitter fraction %q", rest[i+1])
				}
				seed, err := strconv.ParseInt(rest[i+2], 10, 64)
				if err != nil {
					return nil, usage("jitter seed %q", rest[i+2])
				}
				c.Jitter, c.Seed = f, seed
				i += 2
			default:
				return nil, usage("unknown grid option %q", rest[i])
			}
		}
		return c, nil
	case "truss":
		if len(rest) != 3 {
			return nil, usage("generate truss <name> <bays> <baylen> <height>")
		}
		bays, err1 := strconv.Atoi(rest[0])
		bl, err2 := parseFinite(rest[1])
		ht, err3 := parseFinite(rest[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, usage("generate truss: numeric arguments required")
		}
		return GenerateTruss{Name: name, Bays: bays, BayLen: bl, Height: ht}, nil
	case "bar":
		if len(rest) != 2 {
			return nil, usage("generate bar <name> <segments> <length>")
		}
		n, err1 := strconv.Atoi(rest[0])
		l, err2 := parseFinite(rest[1])
		if err1 != nil || err2 != nil {
			return nil, usage("generate bar: numeric arguments required")
		}
		return GenerateBar{Name: name, Segments: n, Length: l}, nil
	default:
		return nil, usage("generate grid|truss|bar")
	}
}

// oracleParseElement parses the two element sub-verbs.
func oracleParseElement(args []string) (Command, error) {
	if len(args) < 3 {
		return nil, usage("element bar|cst <model> <nodes...>")
	}
	switch args[0] {
	case "bar":
		if len(args) != 4 {
			return nil, usage("element bar <model> <n1> <n2>")
		}
		ns, err := oracleInts(args[2:])
		if err != nil {
			return nil, err
		}
		return AddBar{Model: args[1], N1: ns[0], N2: ns[1]}, nil
	case "cst":
		if len(args) != 5 {
			return nil, usage("element cst <model> <n1> <n2> <n3>")
		}
		ns, err := oracleInts(args[2:])
		if err != nil {
			return nil, err
		}
		return AddCST{Model: args[1], N1: ns[0], N2: ns[1], N3: ns[2]}, nil
	default:
		return nil, usage("element bar|cst")
	}
}

// oracleParseLoad parses both load forms: a single dof load and the grid edge
// load.
func oracleParseLoad(args []string) (Command, error) {
	if len(args) == 5 && args[2] == "endload" {
		fx, err1 := parseFinite(args[3])
		fy, err2 := parseFinite(args[4])
		if err1 != nil || err2 != nil {
			return nil, usage("endload forces must be numeric")
		}
		return EndLoad{Model: args[0], Set: args[1], FX: fx, FY: fy}, nil
	}
	if len(args) != 4 {
		return nil, usage("load <model> <set> <dof> <value>")
	}
	dof, err1 := strconv.Atoi(args[2])
	val, err2 := parseFinite(args[3])
	if err1 != nil || err2 != nil {
		return nil, usage("load dof/value must be numeric")
	}
	return AddLoad{Model: args[0], Set: args[1], DOF: dof, Value: val}, nil
}

// oracleParseSolve parses the solve verb and its option list.  Backend and
// preconditioner names are validated against the live linalg registries,
// so a newly registered engine needs no parser change.
func oracleParseSolve(args []string) (Command, error) {
	if len(args) < 2 {
		return nil, usage("solve <model> <set> [method <backend>] [precond <p>] [parallel <p>] [substructures <k>]")
	}
	c := Solve{Model: args[0], Set: args[1]}
	for i := 2; i < len(args); i++ {
		switch args[i] {
		case "method":
			if i+1 >= len(args) {
				return nil, usage("method %s", strings.Join(linalg.Backends(), "|"))
			}
			if !slices.Contains(linalg.Backends(), args[i+1]) {
				return nil, usage("unknown method %q (have %s)", args[i+1], strings.Join(linalg.Backends(), "|"))
			}
			c.Method = Method(args[i+1])
			i++
		case "precond":
			if i+1 >= len(args) {
				return nil, usage("precond %s", strings.Join(linalg.Preconds(), "|"))
			}
			if args[i+1] != "none" && !slices.Contains(linalg.Preconds(), args[i+1]) {
				return nil, usage("unknown preconditioner %q (have %s)", args[i+1], strings.Join(linalg.Preconds(), "|"))
			}
			c.Precond = Precond(args[i+1])
			i++
		case "parallel":
			if i+1 >= len(args) {
				return nil, usage("parallel <p>")
			}
			p, err := strconv.Atoi(args[i+1])
			if err != nil || p < 1 {
				return nil, usage("parallel worker count %q", args[i+1])
			}
			c.Parallel = p
			i++
		case "substructures":
			if i+1 >= len(args) {
				return nil, usage("substructures <k>")
			}
			k, err := strconv.Atoi(args[i+1])
			if err != nil || k < 1 {
				return nil, usage("substructure count %q", args[i+1])
			}
			c.Substructures = k
			i++
		default:
			return nil, usage("unknown solve option %q", args[i])
		}
	}
	return c, nil
}

// oracleParseSubmit parses the submit verb: the rest of the line is itself a
// command line, parsed recursively.  Job-control verbs (and quit) cannot
// run as jobs, so nesting is rejected here.
func oracleParseSubmit(args []string) (Command, error) {
	if len(args) == 0 {
		return nil, usage("submit <command>")
	}
	inner, err := oracleParse(strings.Join(args, " "))
	if err != nil {
		return nil, err
	}
	if inner == nil {
		return nil, usage("submit <command>")
	}
	if err := Submittable(inner); err != nil {
		return nil, err
	}
	return Submit{Cmd: inner}, nil
}

// oracleParseJobs parses the jobs verb and its filter options.
func oracleParseJobs(args []string) (Command, error) {
	c := Jobs{}
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "user":
			if i+1 >= len(args) {
				return nil, usage("jobs user <name>")
			}
			c.Owner = args[i+1]
			i++
		case "state":
			if i+1 >= len(args) {
				return nil, usage("jobs state %s", oracleJoinStates())
			}
			if !oracleValidState(JobState(args[i+1])) {
				return nil, usage("unknown job state %q (have %s)", args[i+1], oracleJoinStates())
			}
			c.State = JobState(args[i+1])
			i++
		default:
			return nil, usage("unknown jobs option %q", args[i])
		}
	}
	return c, nil
}

// oracleValidState reports whether s names a job lifecycle state.
func oracleValidState(s JobState) bool {
	for _, k := range JobStates() {
		if s == k {
			return true
		}
	}
	return false
}

// oracleJoinStates renders the state names for usage messages.
func oracleJoinStates() string {
	names := make([]string, 0, len(JobStates()))
	for _, k := range JobStates() {
		names = append(names, string(k))
	}
	return strings.Join(names, "|")
}

// oracleJobID parses the single argument of a job-control verb: a job id,
// with or without the "job-" prefix its results render.
func oracleJobID(args []string, use string) (int64, error) {
	if len(args) != 1 {
		return 0, usage("%s", use)
	}
	id, err := strconv.ParseInt(strings.TrimPrefix(args[0], "job-"), 10, 64)
	if err != nil || id < 1 {
		return 0, usage("job id %q", args[0])
	}
	return id, nil
}

// oracleFloats parses every field as a float64.
func oracleFloats(ss []string) ([]float64, error) {
	out := make([]float64, len(ss))
	for i, s := range ss {
		v, err := parseFinite(s)
		if err != nil {
			return nil, usage("numeric argument expected, got %q", s)
		}
		out[i] = v
	}
	return out, nil
}

// oracleInts parses every field as an int.
func oracleInts(ss []string) ([]int, error) {
	out := make([]int, len(ss))
	for i, s := range ss {
		v, err := strconv.Atoi(s)
		if err != nil {
			return nil, usage("integer argument expected, got %q", s)
		}
		out[i] = v
	}
	return out, nil
}
