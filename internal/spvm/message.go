// Package spvm implements the FEM-2 system programmer's virtual machine:
// the run-time representation of tasks, their scheduling, the
// communication between them, and the storage representation of data, used
// to implement the numerical analyst's virtual machine one level up.
//
// The paper enumerates the SPVM data objects — code blocks/constant
// blocks, task/procedure activation records, window descriptors, storage
// representations — and seven message types from tasks.  Three of them
// are sent by the NAVM and reproduced here:
//
//	initiate K replications of a task of type T
//	terminate and notify parent
//	load code/constants
//
// The other four — pause and notify parent task, resume a child task,
// remote procedure call and remote procedure return — no NAVM program
// sends, so they are specified by the paper and not reproduced
// (core.FEM2Layers marks them so).  The package also has the kernel
// operations "format and send message" and "decode and execute message",
// and a general heap with variable size blocks for storage management.
// The NAVM hands a kernel each message as a value; the wire format sizes
// what it would carry, and its decoder lives with the tests that
// round-trip it.
package spvm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/hgraph"
)

// MsgType enumerates the SPVM message types the NAVM sends.
type MsgType uint8

// The message types, in the paper's order.
const (
	MsgInitiate MsgType = iota + 1
	MsgTerminate
	MsgLoadCode
)

// String returns the paper's name for the message type.
func (t MsgType) String() string {
	switch t {
	case MsgInitiate:
		return "initiate"
	case MsgTerminate:
		return "terminate"
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
//	Initiate:  TaskType, Replications, Parent, Params
//	Terminate: Task, Parent
//	LoadCode:  CodeName, CodeWords, LocalWords
type Message struct {
	Type         MsgType
	TaskType     string
	CodeName     string
	Replications int64
	CodeWords    int64
	LocalWords   int64
	Task         TaskID
	Parent       TaskID
	Params       []float64
}

// WindowDesc is the SPVM storage representation of a NAVM window on an
// array: which array, which owner task, and the row/column extent.  Kind
// is "row", the one kind the runtime opens.
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
	case MsgTerminate:
		binary.Write(buf, binary.LittleEndian, int64(m.Task))
		binary.Write(buf, binary.LittleEndian, int64(m.Parent))
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
// of hgraph.SPVMMessageGrammar.  This package's tests validate every
// message type, and experiment E11 counts the messages the grammar accepts and
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
	case MsgTerminate:
		root.Arc("task", g.AddAtom("id", hgraph.Int(int64(m.Task))))
		root.Arc("parent", g.AddAtom("p", hgraph.Int(int64(m.Parent))))
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
	n := g.Add("window")
	n.Arc("array", g.AddAtom("a", hgraph.Str(w.Array)))
	n.Arc("kind", g.AddAtom("k", hgraph.Str(w.Kind)))
	n.Arc("owner", g.AddAtom("o", hgraph.Int(int64(w.Owner))))
	n.Arc("row0", g.AddAtom("r0", hgraph.Int(w.Row0)))
	n.Arc("rows", g.AddAtom("r", hgraph.Int(w.Rows)))
	n.Arc("col0", g.AddAtom("c0", hgraph.Int(w.Col0)))
	n.Arc("cols", g.AddAtom("cs", hgraph.Int(w.Cols)))
	return g
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
	case MsgTerminate:
		return fmt.Sprintf("terminate task=%d parent=%d", m.Task, m.Parent)
	case MsgLoadCode:
		return fmt.Sprintf("load-code %q words=%d", m.CodeName, m.CodeWords)
	default:
		return fmt.Sprintf("message type %d", m.Type)
	}
}
