// Package wire is the FEM-2 network protocol: the framing and message
// envelopes a fem2d daemon and its clients exchange over TCP.
//
// Every message is one frame: a 4-byte big-endian payload length
// followed by that many bytes of JSON.  The JSON payload is a Request
// (client → server) or a Response (server → client).  A Request is
// either the connection handshake (Hello) or one typed command from the
// command AST in its command.MarshalCommand envelope; its ID is a
// client-chosen correlation number echoed on the matching Response, so
// requests may be pipelined and answered out of order.  A Response with
// ID 0 and a non-nil Event is a server-pushed job-state notification —
// the wait-without-blocking channel, open to a connection whose Hello
// asked for it.
//
// Which path runs when.  A frame is written by one append pass over
// frame, envelope and body (internal/codec, from the field plans of
// Request, Response and the command structs), byte for byte what
// encoding/json wrote before it.  A frame that arrives in canonical form —
// the form that pass writes, see docs/protocol.md — is read by one pass
// over the same plans, which hands on the decoded Command or Result beside
// its bytes.  Any other payload is decoded as it always was: json.Unmarshal
// of the frame here, leaving the envelope bytes for command.UnmarshalCommand
// or UnmarshalResult.  The bytes alone pick the path, and the general path
// defines what is valid and every error text.
//
// The package is pure schema: it imports only the command layer and the
// codec, and knows nothing of sessions, scheduling, or sockets beyond io.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"

	"repro/internal/codec"
	"repro/internal/command"
	"repro/internal/errs"
)

// MaxFrame bounds one frame's payload.  A frame whose declared length
// exceeds it fails ReadFrame with ErrFrameTooBig: no command or result
// in the language comes anywhere near it, so an oversized declaration
// is a corrupt or hostile peer, not a big model.
const MaxFrame = 4 << 20

// ErrFrameTooBig reports a frame whose declared payload exceeds
// MaxFrame.
var ErrFrameTooBig = errors.New("wire: frame exceeds maximum size")

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooBig, len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame.  io.EOF before any header
// byte is a clean end of stream; a truncated header or payload is
// io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes declared", ErrFrameTooBig, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// FrameReader reads frames off a stream a piece at a time.  The bytes of
// a frame that is not yet whole stay in it between reads, so a read cut
// short — by a deadline, say — loses nothing, and the next Fill resumes
// mid-frame.  Each payload is handed over in a buffer of its own, as
// ReadFrame's is; the rest of a large frame is read straight into it.
type FrameReader struct {
	buf     []byte // read but not yet framed: buf[r:w]
	r, w    int
	payload []byte // the frame being gathered, once its header is in
	got     int    // how much of payload is gathered
}

// frameChunk is the FrameReader's buffer: one read's worth of small
// frames, as a bufio.Reader's default.
const frameChunk = 4096

// Next returns the next frame's payload when the bytes read so far
// complete it; ok is false when they do not.  A declared length past
// MaxFrame fails with ErrFrameTooBig.
func (f *FrameReader) Next() (payload []byte, ok bool, err error) {
	if f.payload == nil {
		if f.w-f.r < 4 {
			return nil, false, nil
		}
		n := binary.BigEndian.Uint32(f.buf[f.r:])
		if n > MaxFrame {
			return nil, false, fmt.Errorf("%w: %d bytes declared", ErrFrameTooBig, n)
		}
		f.r += 4
		f.payload, f.got = make([]byte, n), 0
	}
	c := copy(f.payload[f.got:], f.buf[f.r:f.w])
	f.r += c
	f.got += c
	if f.got < len(f.payload) {
		return nil, false, nil
	}
	payload, f.payload = f.payload, nil
	return payload, true, nil
}

// Fill makes one Read from r.  Call it only once Next has reported no
// whole frame; the bytes the Read returns are kept whatever its error.
func (f *FrameReader) Fill(r io.Reader) error {
	if f.r == f.w {
		f.r, f.w = 0, 0
	}
	if f.payload != nil && f.w == 0 && len(f.payload)-f.got >= frameChunk {
		n, err := r.Read(f.payload[f.got:])
		f.got += n
		return err
	}
	if f.buf == nil {
		f.buf = make([]byte, frameChunk)
	}
	// What Next left unframed is a partial header, three bytes at most.
	f.w = copy(f.buf, f.buf[f.r:f.w])
	f.r = 0
	n, err := r.Read(f.buf[f.w:])
	f.w += n
	return err
}

// Request is one client → server message.
type Request struct {
	// ID correlates the response; clients choose it (monotonic is
	// conventional).  ID 0 is reserved for notifications and must not be
	// used by requests.
	ID uint64 `json:"id"`
	// Hello, when non-nil, is the connection handshake; Command must be
	// empty then.
	Hello *Hello `json:"hello,omitempty"`
	// Command is one typed command in its command.MarshalCommand
	// envelope.
	Command json.RawMessage `json:"command,omitempty"`
	// Cmd is the command itself.  An encoder writes it in Command's place
	// when it is set, with no envelope built in between; DecodeRequest sets
	// it, beside Command, when the frame was canonical.
	Cmd command.Command `json:"-" codec:"command"`
	// General reports that DecodeRequest took the general path: the frame
	// was valid but not canonical, and Command is still to be decoded.
	General bool `json:"-"`
}

// Hello opens a connection: it names the user and pins the protocol
// revision.  The handshake is optional — a server answers bare commands
// under a connection-local default user — but a client that sends it
// must send it first.
type Hello struct {
	// User is the tenant name; the server derives the per-connection
	// session name from it.
	User string `json:"user"`
	// Proto is the client's command.ProtocolVersion; the server rejects
	// a mismatch.
	Proto int `json:"proto"`
	// Notify subscribes the connection to its own jobs' notifications
	// (rev 6); without it the server pushes none.
	Notify bool `json:"notify,omitempty"`
}

// Welcome answers Hello.
type Welcome struct {
	// Server names the serving program; Release its software release.
	Server  string `json:"server"`
	Release string `json:"release"`
	// Proto is the server's protocol revision.
	Proto int `json:"proto"`
	// Session is the per-connection session name the server registered —
	// the owner of every job this connection submits.
	Session string `json:"session"`
	// Storage names the server's storage backend ("mem", "file"), so a
	// client knows at connect time whether its models outlive the daemon.
	Storage string `json:"storage,omitempty"`
	// Degraded reports that the server's store is in read-only degraded
	// mode at connect time (see the degraded error code); healthy
	// servers omit it.
	Degraded bool `json:"degraded,omitempty"`
	// UptimeSeconds is whole seconds since the serving system started
	// (rev 4); just-started servers omit it, which also keeps the
	// envelope byte-identical to rev 3 in that state.
	UptimeSeconds int64 `json:"uptime_s,omitempty"`
	// Role is the daemon's cluster role ("leader" or "follower", rev 5);
	// non-clustered daemons omit it, keeping the envelope byte-identical
	// to rev 4 outside a cluster.
	Role string `json:"role,omitempty"`
	// Leader is the cluster leader's advertised address as this daemon
	// knows it (rev 5) — on a follower, where mutating verbs should go.
	// Omitted outside a cluster or when no leader is known.
	Leader string `json:"leader,omitempty"`
}

// Response is one server → client message: the answer to a request
// (ID echoes the request), or a notification (ID 0, Event non-nil).
type Response struct {
	ID uint64 `json:"id,omitempty"`
	// Welcome answers a Hello request.
	Welcome *Welcome `json:"welcome,omitempty"`
	// Result is the command's typed result in its command.MarshalResult
	// envelope, absent when the command produced none.
	Result json.RawMessage `json:"result,omitempty"`
	// Res is the result itself: written in Result's place when set, and set
	// by DecodeResponse beside Result when the frame was canonical.
	Res command.Result `json:"-" codec:"result"`
	// Error reports the command's failure; Result may accompany it
	// (quit answers both).
	Error *Error `json:"error,omitempty"`
	// Event is a server-pushed job-state notification.
	Event *JobEvent `json:"event,omitempty"`
}

// Error is a wire-encoded failure: a taxonomy code the client maps back
// onto the shared error sentinels, plus the server-side error text —
// which the client surfaces verbatim, so remote error lines render
// byte-identically to local ones.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Leader carries the cluster leader's advertised address on
	// CodeNotLeader responses (rev 5), so a redirected client knows
	// where to reconnect without a discovery round.
	Leader string `json:"leader,omitempty"`
}

// The wire error codes.  Each corresponds to one sentinel of the shared
// taxonomy (Errors) or a protocol-level failure; the client reconstitutes
// errors.Is behaviour from them.
const (
	// CodeUsage maps errs.ErrUsage: a malformed or ineligible request.
	CodeUsage = "usage"
	// CodeNotFound maps errs.ErrNotFound.
	CodeNotFound = "not-found"
	// CodeCancelled maps errs.ErrCancelled.
	CodeCancelled = "cancelled"
	// CodeQuota maps job.ErrQuota: the per-session admission control
	// rejected the submission.
	CodeQuota = "quota"
	// CodeClosed maps job.ErrClosed: the scheduler has shut down.
	CodeClosed = "closed"
	// CodeDraining reports a command rejected because the server is
	// draining; job-control reads and ping/version still answer.
	CodeDraining = "draining"
	// CodeDegraded maps store.ErrDegraded: the server's store stopped
	// accepting writes, the daemon is serving read-only, and mutating
	// commands are refused until the background probe re-arms writes.
	CodeDegraded = "degraded"
	// CodeNotLeader reports a mutating command sent to a cluster
	// follower (rev 5): the daemon serves reads, but writes belong to
	// the leaseholder.  Error.Leader names the leader's advertised
	// address when known; clients redirect there and retry.  The
	// refusal happens before the command executes, so retrying it on
	// the leader is safe for every verb, idempotent or not.
	CodeNotLeader = "not-leader"
	// CodeQuit accompanies the quit verb's result; the server closes the
	// connection after flushing it.
	CodeQuit = "quit"
	// CodeProto reports a protocol violation: a bad frame, a handshake
	// mismatch, an undecodable envelope.
	CodeProto = "proto"
	// CodeInternal reports a server-side failure matching no sentinel.
	CodeInternal = "internal"
)

// Errors pairs each sentinel-carrying code with its sentinel, in the
// order the server tries them: an error travels under the code of the
// first sentinel it wraps (CodeOf), and the client's error for a code
// matches that code's sentinel.
var Errors = []struct {
	Code string
	Err  error
}{
	{CodeQuit, errs.ErrQuit},
	{CodeQuota, errs.ErrQuota},
	{CodeClosed, errs.ErrClosed},
	{CodeDegraded, errs.ErrDegraded},
	{CodeNotLeader, errs.ErrNotLeader},
	{CodeUsage, errs.ErrUsage},
	{CodeNotFound, errs.ErrNotFound},
	{CodeCancelled, errs.ErrCancelled},
}

// CodeOf returns the wire code err travels under: the code of the first
// sentinel in Errors it wraps, CodeInternal when it wraps none.
func CodeOf(err error) string {
	for _, e := range Errors {
		if errors.Is(err, e.Err) {
			return e.Code
		}
	}
	return CodeInternal
}

// JobEvent is one job lifecycle transition, pushed to the connection
// whose session owns the job when its Hello set Notify: submit a solve,
// keep reading, and the queued → running → done trail arrives without a
// blocking wait.
type JobEvent struct {
	// Job is the job id; State the lifecycle state just entered.
	Job   int64  `json:"job"`
	State string `json:"state"`
	// Cmd is the job's command, canonical line.
	Cmd string `json:"cmd,omitempty"`
	// Error is the failure text of a failed or cancelled job.
	Error string `json:"error,omitempty"`
}

// String renders the notification line the -notify REPL prints.
func (e *JobEvent) String() string {
	if e.Error != "" {
		return fmt.Sprintf("[job-%d %s: %s — %s]", e.Job, e.State, e.Cmd, e.Error)
	}
	return fmt.Sprintf("[job-%d %s: %s]", e.Job, e.State, e.Cmd)
}

var (
	requestPlan  = codec.PlanOf(reflect.TypeOf(Request{}), command.CommandCodec)
	responsePlan = codec.PlanOf(reflect.TypeOf(Response{}), command.ResultCodec)
)

// AppendRequest appends a request's frame — header, frame, envelope and
// body in one pass — to dst.  It fails only on a command no frame can
// carry (a NaN field, a type outside the verb table), with the text
// command.MarshalCommand gives; dst comes back unchanged then.
func AppendRequest(dst []byte, req *Request) ([]byte, error) {
	return appendFrame(dst, requestPlan, reflect.ValueOf(req).Elem())
}

// AppendResponse appends a response's frame to dst, as AppendRequest does
// a request's.
func AppendResponse(dst []byte, resp *Response) ([]byte, error) {
	return appendFrame(dst, responsePlan, reflect.ValueOf(resp).Elem())
}

func appendFrame(dst []byte, plan *codec.Plan, v reflect.Value) ([]byte, error) {
	start := len(dst)
	out, err := plan.Append(append(dst, 0, 0, 0, 0), v)
	if err != nil {
		return dst, err
	}
	n := len(out) - start - 4
	if n > MaxFrame {
		return dst, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	binary.BigEndian.PutUint32(out[start:], uint32(n))
	return out, nil
}

// frameBuffer returns room to build a frame in: w's own free space when it
// offers a small frame's worth (a bufio.Writer, a bytes.Buffer in use: the
// Write that follows then copies nothing), else a new buffer past the size
// of the common frame.
func frameBuffer(w io.Writer) []byte {
	if ab, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		if buf := ab.AvailableBuffer(); cap(buf) >= 128 {
			return buf
		}
	}
	return make([]byte, 0, 512)
}

// EncodeRequest writes a request's frame in one Write.
func EncodeRequest(w io.Writer, req *Request) error {
	frame, err := AppendRequest(frameBuffer(w), req)
	if err == nil {
		_, err = w.Write(frame)
	}
	return err
}

// EncodeResponse writes a response's frame in one Write.
func EncodeResponse(w io.Writer, resp *Response) error {
	frame, err := AppendResponse(frameBuffer(w), resp)
	if err == nil {
		_, err = w.Write(frame)
	}
	return err
}

// DecodeRequest reads one frame and decodes it as a Request.
func DecodeRequest(r io.Reader) (*Request, error) {
	payload, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	req := new(Request)
	if rest, ok := requestPlan.Decode(payload, reflect.ValueOf(req).Elem()); ok && len(rest) == 0 {
		return req, nil
	}
	*req = Request{General: true}
	if err := json.Unmarshal(payload, req); err != nil {
		return nil, fmt.Errorf("wire: bad request: %w", err)
	}
	return req, nil
}

// DecodeResponse reads one frame and decodes it as a Response.
func DecodeResponse(r io.Reader) (*Response, error) {
	payload, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	return ParseResponse(payload)
}

// ParseResponse decodes one frame's payload as a Response.  The Response
// may keep slices of payload, so the caller hands it over for good.
func ParseResponse(payload []byte) (*Response, error) {
	resp := new(Response)
	if rest, ok := responsePlan.Decode(payload, reflect.ValueOf(resp).Elem()); ok && len(rest) == 0 {
		return resp, nil
	}
	*resp = Response{}
	if err := json.Unmarshal(payload, resp); err != nil {
		return nil, fmt.Errorf("wire: bad response: %w", err)
	}
	return resp, nil
}
