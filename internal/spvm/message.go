// Package spvm implements the FEM-2 system programmer's virtual machine:
// the run-time representation of tasks, their scheduling, the
// communication between them, and the storage representation of data, used
// to implement the numerical analyst's virtual machine one level up.
//
// The paper enumerates the SPVM data objects — code blocks/constant
// blocks, task/procedure activation records, window descriptors, storage
// representations — and exactly seven message types from tasks:
//
//	initiate K replications of a task of type T
//	pause and notify parent task
//	resume a child task
//	terminate and notify parent
//	remote procedure call
//	remote procedure return
//	load code/constants
//
// plus the kernel operations "format and send message" and "decode and
// execute message", and a general heap with variable size blocks for
// storage management.  The NAVM hands a kernel each message as a value;
// the wire format sizes what it would carry, and its decoder lives with
// the tests that round-trip it.
package spvm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/hgraph"
)

// MsgType enumerates the seven SPVM message types.
type MsgType uint8

// The seven message types, in the paper's order.
const (
	MsgInitiate MsgType = iota + 1
	MsgPause
	MsgResume
	MsgTerminate
	MsgRemoteCall
	MsgRemoteReturn
	MsgLoadCode
)

// String returns the paper's name for the message type.
func (t MsgType) String() string {
	switch t {
	case MsgInitiate:
		return "initiate"
	case MsgPause:
		return "pause"
	case MsgResume:
		return "resume"
	case MsgTerminate:
		return "terminate"
	case MsgRemoteCall:
		return "remote-call"
	case MsgRemoteReturn:
		return "remote-return"
	case MsgLoadCode:
		return "load-code"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// TaskID identifies a task machine-wide.
type TaskID int64

// NoTask is the nil TaskID (e.g. the parent of the root task).
const NoTask TaskID = -1

// Message is one SPVM message.  Field use depends on Type:
//
//	Initiate:     TaskType, Replications, Parent, Params
//	Pause:        Task, Parent
//	Resume:       Child
//	Terminate:    Task, Parent
//	RemoteCall:   Procedure, Caller, Window (optional), Params
//	RemoteReturn: Caller, Params (the results)
//	LoadCode:     CodeName, CodeWords
type Message struct {
	Type         MsgType
	TaskType     string
	Procedure    string
	CodeName     string
	Replications int64
	CodeWords    int64
	LocalWords   int64
	Task         TaskID
	Parent       TaskID
	Child        TaskID
	Caller       TaskID
	Window       *WindowDesc
	Params       []float64
}

// WindowDesc is the SPVM storage representation of a NAVM window on an
// array: which array, which owner task, and the row/column extent.  Kind
// is one of "row", "col", "block".
type WindowDesc struct {
	Array string
	Kind  string
	Owner TaskID
	Row0  int64
	Rows  int64
	Col0  int64
	Cols  int64
}

// Words returns the message size in words (8-byte units) for communication
// accounting: the encoded byte length rounded up.
func (m *Message) Words() int64 {
	b, err := m.Encode()
	if err != nil {
		return 0
	}
	return int64((len(b) + 7) / 8)
}

// magic guards decoding against stray bytes.
const magic = 0xFE02

var (
	// ErrBadMessage is returned when decoding fails structurally.
	ErrBadMessage = errors.New("spvm: malformed message")
)

func writeString(buf *bytes.Buffer, s string) {
	binary.Write(buf, binary.LittleEndian, uint32(len(s)))
	buf.WriteString(s)
}

// Encode serializes the message to the SPVM wire format ("format and send
// message").
func (m *Message) Encode() ([]byte, error) {
	if m.Type < MsgInitiate || m.Type > MsgLoadCode {
		return nil, fmt.Errorf("%w: unknown type %d", ErrBadMessage, m.Type)
	}
	buf := &bytes.Buffer{}
	binary.Write(buf, binary.LittleEndian, uint16(magic))
	buf.WriteByte(byte(m.Type))
	switch m.Type {
	case MsgInitiate:
		writeString(buf, m.TaskType)
		binary.Write(buf, binary.LittleEndian, m.Replications)
		binary.Write(buf, binary.LittleEndian, int64(m.Parent))
		writeParams(buf, m.Params)
	case MsgPause:
		binary.Write(buf, binary.LittleEndian, int64(m.Task))
		binary.Write(buf, binary.LittleEndian, int64(m.Parent))
	case MsgResume:
		binary.Write(buf, binary.LittleEndian, int64(m.Child))
	case MsgTerminate:
		binary.Write(buf, binary.LittleEndian, int64(m.Task))
		binary.Write(buf, binary.LittleEndian, int64(m.Parent))
	case MsgRemoteCall:
		writeString(buf, m.Procedure)
		binary.Write(buf, binary.LittleEndian, int64(m.Caller))
		if m.Window != nil {
			buf.WriteByte(1)
			writeString(buf, m.Window.Array)
			writeString(buf, m.Window.Kind)
			binary.Write(buf, binary.LittleEndian, int64(m.Window.Owner))
			binary.Write(buf, binary.LittleEndian, m.Window.Row0)
			binary.Write(buf, binary.LittleEndian, m.Window.Rows)
			binary.Write(buf, binary.LittleEndian, m.Window.Col0)
			binary.Write(buf, binary.LittleEndian, m.Window.Cols)
		} else {
			buf.WriteByte(0)
		}
		writeParams(buf, m.Params)
	case MsgRemoteReturn:
		binary.Write(buf, binary.LittleEndian, int64(m.Caller))
		writeParams(buf, m.Params)
	case MsgLoadCode:
		writeString(buf, m.CodeName)
		binary.Write(buf, binary.LittleEndian, m.CodeWords)
		binary.Write(buf, binary.LittleEndian, m.LocalWords)
	}
	return buf.Bytes(), nil
}

func writeParams(buf *bytes.Buffer, ps []float64) {
	binary.Write(buf, binary.LittleEndian, uint32(len(ps)))
	for _, p := range ps {
		binary.Write(buf, binary.LittleEndian, math.Float64bits(p))
	}
}

// ToHGraph builds the formal H-graph model of the message, in the language
// of hgraph.SPVMMessageGrammar.  Its window arc is the graph
// WindowDesc.ToHGraph builds.  This package's tests validate every message
// type, and experiment E11 counts the messages the grammar accepts and
// the mutants it rejects.
func (m *Message) ToHGraph() *hgraph.Graph {
	g := hgraph.NewGraph("message")
	root := g.Add("message")
	root.Arc("type", g.AddAtom("t", hgraph.Str(m.Type.String())))
	switch m.Type {
	case MsgInitiate:
		root.Arc("task-type", g.AddAtom("tt", hgraph.Str(m.TaskType)))
		root.Arc("replications", g.AddAtom("k", hgraph.Int(m.Replications)))
		root.Arc("parent", g.AddAtom("p", hgraph.Int(int64(m.Parent))))
		root.Arc("params", floatList(g, "params", m.Params))
	case MsgPause:
		root.Arc("task", g.AddAtom("id", hgraph.Int(int64(m.Task))))
		root.Arc("parent", g.AddAtom("p", hgraph.Int(int64(m.Parent))))
	case MsgResume:
		root.Arc("child", g.AddAtom("c", hgraph.Int(int64(m.Child))))
	case MsgTerminate:
		root.Arc("task", g.AddAtom("id", hgraph.Int(int64(m.Task))))
		root.Arc("parent", g.AddAtom("p", hgraph.Int(int64(m.Parent))))
	case MsgRemoteCall:
		root.Arc("procedure", g.AddAtom("pr", hgraph.Str(m.Procedure)))
		root.Arc("caller", g.AddAtom("c", hgraph.Int(int64(m.Caller))))
		if m.Window != nil {
			root.Arc("window", m.Window.addNode(g))
		}
		root.Arc("args", floatList(g, "args", m.Params))
	case MsgRemoteReturn:
		root.Arc("caller", g.AddAtom("c", hgraph.Int(int64(m.Caller))))
		root.Arc("results", floatList(g, "results", m.Params))
	case MsgLoadCode:
		root.Arc("block", g.AddAtom("b", hgraph.Str(m.CodeName)))
		root.Arc("words", g.AddAtom("w", hgraph.Int(m.CodeWords)))
		root.Arc("local-words", g.AddAtom("lw", hgraph.Int(m.LocalWords)))
	}
	return g
}

// ToHGraph builds the formal H-graph model of the window, in the language
// of hgraph.WindowGrammar; a navm.Window renders through its Desc.
func (w *WindowDesc) ToHGraph() *hgraph.Graph {
	g := hgraph.NewGraph("window")
	w.addNode(g)
	return g
}

// addNode adds the window's node to g and returns it.
func (w *WindowDesc) addNode(g *hgraph.Graph) *hgraph.Node {
	n := g.Add("window")
	n.Arc("array", g.AddAtom("a", hgraph.Str(w.Array)))
	n.Arc("kind", g.AddAtom("k", hgraph.Str(w.Kind)))
	n.Arc("owner", g.AddAtom("o", hgraph.Int(int64(w.Owner))))
	n.Arc("row0", g.AddAtom("r0", hgraph.Int(w.Row0)))
	n.Arc("rows", g.AddAtom("r", hgraph.Int(w.Rows)))
	n.Arc("col0", g.AddAtom("c0", hgraph.Int(w.Col0)))
	n.Arc("cols", g.AddAtom("cs", hgraph.Int(w.Cols)))
	return n
}

// floatList adds a list node of float atoms to g.
func floatList(g *hgraph.Graph, label string, fs []float64) *hgraph.Node {
	return g.AddList(label, len(fs), func(i int) *hgraph.Node { return g.AddAtom(label, hgraph.Float(fs[i])) })
}

// String renders the message for logs.
func (m *Message) String() string {
	switch m.Type {
	case MsgInitiate:
		return fmt.Sprintf("initiate %d×%q parent=%d params=%d", m.Replications, m.TaskType, m.Parent, len(m.Params))
	case MsgPause:
		return fmt.Sprintf("pause task=%d parent=%d", m.Task, m.Parent)
	case MsgResume:
		return fmt.Sprintf("resume child=%d", m.Child)
	case MsgTerminate:
		return fmt.Sprintf("terminate task=%d parent=%d", m.Task, m.Parent)
	case MsgRemoteCall:
		return fmt.Sprintf("remote-call %q caller=%d args=%d", m.Procedure, m.Caller, len(m.Params))
	case MsgRemoteReturn:
		return fmt.Sprintf("remote-return caller=%d results=%d", m.Caller, len(m.Params))
	case MsgLoadCode:
		return fmt.Sprintf("load-code %q words=%d", m.CodeName, m.CodeWords)
	default:
		return fmt.Sprintf("message type %d", m.Type)
	}
}
