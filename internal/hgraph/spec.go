package hgraph

// This file carries the formal H-graph grammar definitions of the FEM-2
// virtual machine levels — the artifact the paper's design process
// produces ("H-graph semantics definitions of the various levels are being
// constructed").  Each grammar's doc names the live value it specifies;
// the package doc names the builder that renders it.

// SPVMMessageGrammar returns the grammar of the system programmer's VM
// message formats: the three of the paper's seven messages from tasks
// that the NAVM sends,
//
//	initiate K replications of a task of type T
//	terminate and notify parent
//	load code/constants
//
// Pause, resume, remote procedure call and remote procedure return are
// specified by the paper, not reproduced.
func SPVMMessageGrammar() *Grammar {
	g := NewGrammar("spvm-message", "message")
	g.Define("message", UnionType{Alts: []TypeExpr{
		Ref("initiate"), Ref("terminate"), Ref("load-code"),
	}})
	g.Define("initiate", StructType{Closed: true, Fields: []Field{
		{Sel: "type", Type: LitString{"initiate"}},
		{Sel: "task-type", Type: AtomType{AtomString}},
		{Sel: "replications", Type: AtomType{AtomInt}},
		{Sel: "parent", Type: AtomType{AtomInt}},
		{Sel: "params", Type: ListType{Elem: AnyType{}}},
	}})
	g.Define("terminate", StructType{Closed: true, Fields: []Field{
		{Sel: "type", Type: LitString{"terminate"}},
		{Sel: "task", Type: AtomType{AtomInt}},
		{Sel: "parent", Type: AtomType{AtomInt}},
	}})
	g.Define("load-code", StructType{Closed: true, Fields: []Field{
		{Sel: "type", Type: LitString{"load-code"}},
		{Sel: "block", Type: AtomType{AtomString}},
		{Sel: "words", Type: AtomType{AtomInt}},
		{Sel: "local-words", Type: AtomType{AtomInt}},
	}})
	return g
}

// WindowGrammar returns the grammar of NAVM window descriptors ("windows
// on arrays (e.g., row, column, block descriptors, for remote access to
// non-local data)"); the runtime opens row windows only, and the column
// and block kinds stay paper-only.
func WindowGrammar() *Grammar {
	g := NewGrammar("navm-window", "window")
	g.Define("window", StructType{Closed: true, Fields: []Field{
		{Sel: "array", Type: AtomType{AtomString}},
		{Sel: "kind", Type: LitString{"row"}},
		{Sel: "owner", Type: AtomType{AtomInt}},
		{Sel: "row0", Type: AtomType{AtomInt}},
		{Sel: "rows", Type: AtomType{AtomInt}},
		{Sel: "col0", Type: AtomType{AtomInt}},
		{Sel: "cols", Type: AtomType{AtomInt}},
	}})
	return g
}

// ActivationRecordGrammar returns the grammar of SPVM activation records,
// the kernel's one representation of a task (a NAVM task is an SPVM
// activation): the task and its parent, the code block it runs, the
// parameters copied from its initiate message, the size of its local
// data, and its life-cycle state between the initiate and terminate
// messages.  Where the heap holds the local data is storage management's
// business, not part of the record's type.
func ActivationRecordGrammar() *Grammar {
	g := NewGrammar("spvm-activation", "activation")
	g.Define("activation", StructType{Closed: true, Fields: []Field{
		{Sel: "task", Type: AtomType{AtomInt}},
		{Sel: "parent", Type: AtomType{AtomInt}},
		{Sel: "code-block", Type: AtomType{AtomString}},
		{Sel: "params", Type: ListType{Elem: AtomType{AtomFloat}}},
		{Sel: "local-words", Type: AtomType{AtomInt}},
		{Sel: "state", Type: UnionType{Alts: []TypeExpr{
			LitString{"ready"}, LitString{"running"},
		}}},
	}})
	return g
}

// StructureModelGrammar returns the grammar of the application user's VM
// central data object, the structure model, as the database stores it:
// its name, node coordinates, elements, fixed degrees of freedom and
// load sets.  An element is a bar or a constant-strain triangle over
// node indices, with its material; elements of one material share its
// node, as the stored record shares a material table entry.
func StructureModelGrammar() *Grammar {
	g := NewGrammar("auvm-model", "model")
	g.Define("model", StructType{Closed: true, Fields: []Field{
		{Sel: "name", Type: AtomType{AtomString}},
		{Sel: "nodes", Type: ListType{Elem: Ref("node")}},
		{Sel: "elements", Type: ListType{Elem: Ref("element")}},
		{Sel: "fixed", Type: ListType{Elem: AtomType{AtomInt}}},
		{Sel: "loads", Type: ListType{Elem: Ref("loadset")}},
	}})
	g.Define("node", StructType{Closed: true, Fields: []Field{
		{Sel: "x", Type: AtomType{AtomFloat}},
		{Sel: "y", Type: AtomType{AtomFloat}},
	}})
	g.Define("element", UnionType{Alts: []TypeExpr{Ref("bar"), Ref("cst")}})
	g.Define("bar", StructType{Closed: true, Fields: []Field{
		{Sel: "kind", Type: LitString{"bar"}},
		{Sel: "n1", Type: AtomType{AtomInt}},
		{Sel: "n2", Type: AtomType{AtomInt}},
		{Sel: "material", Type: Ref("material")},
	}})
	g.Define("cst", StructType{Closed: true, Fields: []Field{
		{Sel: "kind", Type: LitString{"cst"}},
		{Sel: "n1", Type: AtomType{AtomInt}},
		{Sel: "n2", Type: AtomType{AtomInt}},
		{Sel: "n3", Type: AtomType{AtomInt}},
		{Sel: "material", Type: Ref("material")},
	}})
	g.Define("material", StructType{Closed: true, Fields: []Field{
		{Sel: "E", Type: AtomType{AtomFloat}},
		{Sel: "nu", Type: AtomType{AtomFloat}},
		{Sel: "t", Type: AtomType{AtomFloat}},
		{Sel: "A", Type: AtomType{AtomFloat}},
	}})
	g.Define("loadset", StructType{Closed: true, Fields: []Field{
		{Sel: "name", Type: AtomType{AtomString}},
		{Sel: "entries", Type: ListType{Elem: Ref("load-entry")}},
	}})
	g.Define("load-entry", StructType{Closed: true, Fields: []Field{
		{Sel: "dof", Type: AtomType{AtomInt}},
		{Sel: "value", Type: AtomType{AtomFloat}},
	}})
	return g
}

// AllLevelGrammars returns the formal grammar of every specified VM level,
// keyed by a stable name; cmd/hgraph and core.LayerSpec iterate it.
func AllLevelGrammars() map[string]*Grammar {
	return map[string]*Grammar{
		"spvm-message":    SPVMMessageGrammar(),
		"spvm-activation": ActivationRecordGrammar(),
		"navm-window":     WindowGrammar(),
		"auvm-model":      StructureModelGrammar(),
	}
}
