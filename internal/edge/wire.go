package edge

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sync"

	"dive/internal/world"
)

// Wire format. Every message is an envelope
//
//	magic(2: "Dv") | type(1) | length(4, BE) | payload(length) | crc32(4, BE)
//
// with the CRC (IEEE) computed over type|length|payload. The explicit frame
// makes corruption detectable (the CRC), bounded (length caps reject
// nonsense before allocation) and survivable (a reader that hits garbage
// scans forward to the next magic marker instead of desynchronizing
// forever). Payload encodings are hand-rolled fixed-width big-endian — no
// reflection, no unbounded recursion, fuzzable as pure functions.

const (
	wireMagic0 = 'D'
	wireMagic1 = 'v'

	// MsgHello opens a session, MsgFrame carries one encoded frame uplink,
	// MsgResult carries detections (or a NACK) downlink, MsgRedirect tells
	// the agent to move its session to another cluster member.
	MsgHello    byte = 1
	MsgFrame    byte = 2
	MsgResult   byte = 3
	MsgRedirect byte = 4

	// MaxPayload caps any message payload; larger lengths are treated as
	// corruption. Far above any real frame at these resolutions.
	MaxPayload = 8 << 20
	// maxStringLen caps embedded strings (profile names, error text).
	maxStringLen = 1 << 10
	// maxDetections caps the detection list in one result.
	maxDetections = 1 << 14
	// maxFrameIndex caps plausible frame indices.
	maxFrameIndex = 1 << 28

	wireHeaderLen  = 2 + 1 + 4
	wireTrailerLen = 4
)

// Typed wire errors. ErrChecksum and ErrMalformed mark recoverable,
// message-local damage: the stream is still aligned (or realignable) and the
// reader may continue. Anything else is a transport error.
var (
	ErrChecksum  = errors.New("edge: message checksum mismatch")
	ErrMalformed = errors.New("edge: malformed message")
	ErrTooLarge  = errors.New("edge: message exceeds size cap")
)

// IsRecoverable reports whether a wire error damages only one message:
// the connection can keep going after a NACK.
func IsRecoverable(err error) bool {
	return errors.Is(err, ErrChecksum) || errors.Is(err, ErrMalformed) || errors.Is(err, ErrTooLarge)
}

// envPool holds the envelope buffers every writer encodes into.
var envPool = sync.Pool{New: func() any { return new([]byte) }}

// writeMsg encodes one message straight into its envelope, in a pooled
// buffer — header opened, payload appended, length patched, CRC appended —
// and hands it to w in one Write. Nothing of the message is retained past
// the Write, and payload, a concrete message's method value, keeps the
// message off the heap.
func writeMsg(w io.Writer, typ byte, payload func([]byte) []byte) error {
	buf := envPool.Get().(*[]byte)
	defer envPool.Put(buf)
	b := payload(append((*buf)[:0], wireMagic0, wireMagic1, typ, 0, 0, 0, 0))
	n := len(b) - wireHeaderLen
	if n > MaxPayload {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	binary.BigEndian.PutUint32(b[3:], uint32(n))
	*buf = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b[2:]))
	_, err := w.Write(*buf)
	return err
}

// MsgReader reads framed messages, scanning forward to the next magic marker
// after corruption so one damaged message never desynchronizes the session.
// It owns one payload buffer, grown on demand: the slice Next returns — and
// everything that aliases it, FrameMsg.Bitstream from DecodeFrameMsg
// included — is valid until the following Next.
type MsgReader struct {
	br  *bufio.Reader
	buf []byte // type + length + payload + crc of the current message
}

// NewMsgReader wraps r for framed reads.
func NewMsgReader(r io.Reader) *MsgReader {
	return &MsgReader{br: bufio.NewReaderSize(r, 64*1024)}
}

// Next returns the next message; the payload is valid until the following
// Next. On ErrChecksum the damaged message was consumed whole (the stream is
// aligned); on ErrMalformed/ErrTooLarge the header was implausible and the
// next call rescans for the magic marker. Other errors are transport
// failures.
func (mr *MsgReader) Next() (typ byte, payload []byte, err error) {
	// Scan to the magic marker: exactly two bytes on a clean stream, the
	// first "Dv" after garbage.
	for prev := byte(0); ; {
		b, err := mr.br.ReadByte()
		if err != nil {
			return 0, nil, err
		}
		if prev == wireMagic0 && b == wireMagic1 {
			break
		}
		prev = b
	}
	const hdr = 5 // type + length
	mr.buf = append(mr.buf[:0], 0, 0, 0, 0, 0)
	if _, err := io.ReadFull(mr.br, mr.buf); err != nil {
		return 0, nil, noteEOF(err)
	}
	typ = mr.buf[0]
	n := binary.BigEndian.Uint32(mr.buf[1:])
	if typ < MsgHello || typ > MsgRedirect {
		return 0, nil, fmt.Errorf("%w: unknown type %d", ErrMalformed, typ)
	}
	if n > MaxPayload { // before the buffer grows: a hostile length allocates nothing
		return 0, nil, fmt.Errorf("%w: claimed %d bytes", ErrTooLarge, n)
	}
	mr.buf = slices.Grow(mr.buf, int(n)+wireTrailerLen)[:hdr+int(n)+wireTrailerLen]
	if _, err := io.ReadFull(mr.br, mr.buf[hdr:]); err != nil {
		return 0, nil, noteEOF(err)
	}
	body := mr.buf[:hdr+int(n)]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(mr.buf[len(body):]) {
		return typ, nil, ErrChecksum
	}
	return typ, body[hdr:], nil
}

// noteEOF maps a mid-message EOF onto ErrUnexpectedEOF so callers can
// distinguish a clean session end (io.EOF between messages) from a
// truncated message.
func noteEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// --- payload codecs -------------------------------------------------------

// rbuf is a bounds-checked big-endian reader over one payload.
type rbuf struct {
	b   []byte
	off int
	err error
}

func (r *rbuf) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated %s at offset %d", ErrMalformed, what, r.off)
	}
}

// take is the one bounds check: the next n bytes, aliased, or nil with the
// truncation recorded.
func (r *rbuf) take(n int, what string) []byte {
	if r.err != nil || n > len(r.b)-r.off {
		r.fail(what)
		return nil
	}
	r.off += n
	return r.b[r.off-n : r.off]
}

// uint reads an n-byte big-endian integer (0 once the payload ran out).
func (r *rbuf) uint(n int, what string) (v uint64) {
	for _, c := range r.take(n, what) {
		v = v<<8 | uint64(c)
	}
	return v
}

func (r *rbuf) u8(what string) byte    { return byte(r.uint(1, what)) }
func (r *rbuf) u16(what string) uint16 { return uint16(r.uint(2, what)) }
func (r *rbuf) u32(what string) uint32 { return uint32(r.uint(4, what)) }
func (r *rbuf) u64(what string) uint64 { return r.uint(8, what) }
func (r *rbuf) i64(what string) int64  { return int64(r.uint(8, what)) }

func (r *rbuf) f64(what string) float64 {
	v := math.Float64frombits(r.u64(what))
	if r.err == nil && (math.IsInf(v, 0) || math.IsNaN(v)) {
		r.err = fmt.Errorf("%w: non-finite %s", ErrMalformed, what)
	}
	return v
}

func (r *rbuf) str(what string) string {
	n := int(r.u16(what))
	if r.err == nil && n > maxStringLen {
		r.err = fmt.Errorf("%w: %s length %d exceeds cap", ErrMalformed, what, n)
	}
	return string(r.take(n, what))
}

// bytes reads a length-prefixed byte string, aliasing the payload.
func (r *rbuf) bytes(what string) []byte {
	n := r.u32(what)
	if n > MaxPayload {
		r.fail(what)
		return nil
	}
	return r.take(int(n), what)
}

// done rejects trailing garbage: a well-formed payload is consumed exactly.
func (r *rbuf) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(r.b)-r.off)
	}
	return nil
}

func appendString(b []byte, s string) []byte {
	if len(s) > maxStringLen {
		s = s[:maxStringLen]
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// helloFlagResume marks a session-resume handshake: the agent reconnected
// mid-clip and will continue from Hello.FirstFrame with a keyframe.
const helloFlagResume = 1 << 0

func (h Hello) appendPayload(b []byte) []byte {
	b = append(b, 1) // version
	var flags byte
	if h.Resume {
		flags |= helloFlagResume
	}
	b = append(b, flags)
	b = appendString(b, h.Profile)
	b = binary.BigEndian.AppendUint64(b, uint64(h.Seed))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(h.Duration))
	return binary.BigEndian.AppendUint32(b, uint32(h.FirstFrame))
}

// DecodeHello parses a Hello payload, rejecting malformed input with a
// typed error (never panics, never over-allocates).
func DecodeHello(p []byte) (Hello, error) {
	r := &rbuf{b: p}
	v := r.u8("version")
	if r.err == nil && v != 1 {
		return Hello{}, fmt.Errorf("%w: unsupported hello version %d", ErrMalformed, v)
	}
	flags := r.u8("flags")
	h := Hello{
		Resume:     flags&helloFlagResume != 0,
		Profile:    r.str("profile"),
		Seed:       r.i64("seed"),
		Duration:   r.f64("duration"),
		FirstFrame: int(r.u32("first_frame")),
	}
	if r.err == nil && !(h.Duration >= 0 && h.Duration <= world.MaxClipDuration) {
		return Hello{}, fmt.Errorf("%w: duration %v out of range", ErrMalformed, h.Duration)
	}
	if r.err == nil && h.FirstFrame > maxFrameIndex {
		return Hello{}, fmt.Errorf("%w: first frame %d out of range", ErrMalformed, h.FirstFrame)
	}
	if err := r.done(); err != nil {
		return Hello{}, err
	}
	return h, nil
}

// appendPayload serializes a FrameMsg. The envelope CRC covers the
// bitstream, so corruption anywhere in the frame is caught before decode.
func (m *FrameMsg) appendPayload(b []byte) []byte {
	b = slices.Grow(b, 32+len(m.Bitstream)+wireTrailerLen)
	b = binary.BigEndian.AppendUint32(b, uint32(m.Index))
	b = binary.BigEndian.AppendUint64(b, uint64(m.SentNanos))
	b = binary.BigEndian.AppendUint64(b, m.TraceID)
	b = binary.BigEndian.AppendUint64(b, m.SpanID)
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Bitstream)))
	return append(b, m.Bitstream...)
}

// DecodeFrameMsg parses a FrameMsg payload. Bitstream aliases p: decoded
// from a MsgReader payload it is valid until that reader's next Next.
func DecodeFrameMsg(p []byte) (FrameMsg, error) {
	r := &rbuf{b: p}
	m := FrameMsg{
		Index:     int(r.u32("index")),
		SentNanos: r.i64("sent_nanos"),
		TraceID:   r.u64("trace_id"),
		SpanID:    r.u64("span_id"),
		Bitstream: r.bytes("bitstream"),
	}
	if r.err == nil && m.Index > maxFrameIndex {
		return FrameMsg{}, fmt.Errorf("%w: frame index %d out of range", ErrMalformed, m.Index)
	}
	if err := r.done(); err != nil {
		return FrameMsg{}, err
	}
	return m, nil
}

// resultFlagNeedKeyframe asks the agent to intra-code its next frame: the
// server decoder lost sync (corrupt frame, dropped frame, fresh resume).
const resultFlagNeedKeyframe = 1 << 0

func (m *ResultMsg) appendPayload(b []byte) []byte {
	b = slices.Grow(b, 48+len(m.Err)+28*len(m.Detections)+wireTrailerLen)
	b = binary.BigEndian.AppendUint32(b, uint32(int32(m.Index)))
	var flags byte
	if m.NeedKeyframe {
		flags |= resultFlagNeedKeyframe
	}
	b = append(b, flags)
	b = binary.BigEndian.AppendUint64(b, uint64(m.SentNanos))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(m.ServerMs))
	b = binary.BigEndian.AppendUint64(b, m.TraceID)
	b = appendString(b, m.Err)
	n := len(m.Detections)
	if n > maxDetections {
		n = maxDetections
	}
	b = binary.BigEndian.AppendUint16(b, uint16(n))
	for _, d := range m.Detections[:n] {
		for _, v := range [...]int{d.Class, d.MinX, d.MinY, d.MaxX, d.MaxY} {
			b = binary.BigEndian.AppendUint32(b, uint32(int32(v)))
		}
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(d.Score))
	}
	return b
}

// DecodeResultMsg parses a ResultMsg payload.
func DecodeResultMsg(p []byte) (ResultMsg, error) {
	r := &rbuf{b: p}
	m := ResultMsg{Index: int(int32(r.u32("index")))}
	flags := r.u8("flags")
	m.NeedKeyframe = flags&resultFlagNeedKeyframe != 0
	m.SentNanos = r.i64("sent_nanos")
	m.ServerMs = r.f64("server_ms")
	m.TraceID = r.u64("trace_id")
	m.Err = r.str("err")
	n := int(r.u16("det_count"))
	if r.err == nil && n > maxDetections {
		return ResultMsg{}, fmt.Errorf("%w: %d detections exceeds cap", ErrMalformed, n)
	}
	if r.err == nil && n > 0 {
		m.Detections = make([]WireDetection, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			m.Detections = append(m.Detections, WireDetection{
				Class: int(int32(r.u32("class"))),
				MinX:  int(int32(r.u32("minx"))),
				MinY:  int(int32(r.u32("miny"))),
				MaxX:  int(int32(r.u32("maxx"))),
				MaxY:  int(int32(r.u32("maxy"))),
				Score: r.f64("score"),
			})
		}
	}
	if err := r.done(); err != nil {
		return ResultMsg{}, err
	}
	if m.Index < -1 || m.Index > maxFrameIndex {
		return ResultMsg{}, fmt.Errorf("%w: result index %d out of range", ErrMalformed, m.Index)
	}
	return m, nil
}

// Redirect tells the agent to move its live session to another cluster
// member: the balancer sends it when draining a server (planned migration).
// Addr is the dial target ("host:port"); Reason is a short human-readable
// tag ("drain") surfaced in the decision journal. The client validates Addr
// before dialing — an empty or self-referential target is message-local
// damage, not a command.
type Redirect struct {
	Addr   string
	Reason string
}

func (rd Redirect) appendPayload(b []byte) []byte {
	b = append(b, 1) // version
	b = appendString(b, rd.Addr)
	return appendString(b, rd.Reason)
}

// DecodeRedirect parses a Redirect payload. An empty address is malformed:
// there is nothing safe to do with a redirect to nowhere.
func DecodeRedirect(p []byte) (Redirect, error) {
	r := &rbuf{b: p}
	v := r.u8("version")
	if r.err == nil && v != 1 {
		return Redirect{}, fmt.Errorf("%w: unsupported redirect version %d", ErrMalformed, v)
	}
	rd := Redirect{
		Addr:   r.str("addr"),
		Reason: r.str("reason"),
	}
	if r.err == nil && rd.Addr == "" {
		return Redirect{}, fmt.Errorf("%w: redirect with empty address", ErrMalformed)
	}
	if err := r.done(); err != nil {
		return Redirect{}, err
	}
	return rd, nil
}

// The writers allocate nothing and issue exactly one Write per message.
func WriteHello(w io.Writer, h Hello) error        { return writeMsg(w, MsgHello, h.appendPayload) }
func WriteFrame(w io.Writer, m *FrameMsg) error    { return writeMsg(w, MsgFrame, m.appendPayload) }
func WriteResult(w io.Writer, m *ResultMsg) error  { return writeMsg(w, MsgResult, m.appendPayload) }
func writeRedirect(w io.Writer, rd Redirect) error { return writeMsg(w, MsgRedirect, rd.appendPayload) }
