// Package server is recycledb's network front end: a PostgreSQL wire
// protocol (v3) server over the engine's streaming Query/Prepare/Rows API.
//
// The protocol subset is what real clients need day to day: startup with
// trust auth, the simple query protocol ('Q'), the extended protocol
// (Parse/Bind/Describe/Execute/Close/Flush/Sync), text-format results,
// CancelRequest, and a handful of utility statements (SET / SHOW /
// BEGIN / COMMIT no-ops) so stock drivers and psql connect cleanly.
//
// Architecturally each connection is one goroutine running a
// read-decode-execute-write loop. Query results are never materialized
// server-side: each Rows batch is encoded into the outgoing buffer as
// DataRow messages and the buffer flushes through the kernel socket — a
// slow client blocks the write, which stalls Rows.Next, which stalls the
// pipeline at a batch boundary. Backpressure is the transport, exactly the
// evaluate-into-consumer push-pipe idiom: the socket is the consumer the
// pipeline evaluates into.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Frontend (client → server) message type bytes.
const (
	msgQuery     = 'Q'
	msgParse     = 'P'
	msgBind      = 'B'
	msgDescribe  = 'D'
	msgExecute   = 'E'
	msgClose     = 'C'
	msgFlush     = 'H'
	msgSync      = 'S'
	msgTerminate = 'X'
	msgPassword  = 'p'
)

// Backend (server → client) message type bytes.
const (
	msgAuth             = 'R'
	msgParameterStatus  = 'S'
	msgBackendKeyData   = 'K'
	msgReadyForQuery    = 'Z'
	msgRowDescription   = 'T'
	msgDataRow          = 'D'
	msgCommandComplete  = 'C'
	msgEmptyQuery       = 'I'
	msgErrorResponse    = 'E'
	msgNoticeResponse   = 'N'
	msgParseComplete    = '1'
	msgBindComplete     = '2'
	msgCloseComplete    = '3'
	msgNoData           = 'n'
	msgParamDescription = 't'
	msgPortalSuspended  = 's'
)

// Startup-phase request codes (no leading type byte).
const (
	protocolVersion3 = 196608 // 3.0
	sslRequestCode   = 80877103
	gssEncReqCode    = 80877104
	cancelReqCode    = 80877102
)

// maxStartupLen bounds the startup packet; maxMsgLen bounds any typed
// message. Both guard against a garbage length word making the server
// allocate gigabytes for one frame.
const (
	maxStartupLen = 16 * 1024
	maxMsgLen     = 64 * 1024 * 1024
)

var errMsgTooLong = errors.New("pgwire: message exceeds maximum length")

// readN reads exactly n bytes.
func readN(r io.Reader, n int) ([]byte, error) {
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// readStartup reads one startup-phase packet: a length-prefixed frame with
// no type byte. It returns the packet body (after the length word).
func readStartup(r io.Reader) ([]byte, error) {
	hdr, err := readN(r, 4)
	if err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n < 4 || n > maxStartupLen {
		return nil, fmt.Errorf("pgwire: bad startup packet length %d", n)
	}
	return readN(r, n-4)
}

// readTyped reads one typed message: a type byte, a length word (including
// itself), and the body.
func readTyped(r io.Reader) (byte, []byte, error) {
	hdr, err := readN(r, 5)
	if err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[1:]))
	if n < 4 || n > maxMsgLen {
		return 0, nil, fmt.Errorf("pgwire: bad message length %d", n)
	}
	body, err := readN(r, n-4)
	if err != nil {
		return 0, nil, err
	}
	return hdr[0], body, nil
}

// readBuf is a cursor over a received message body.
type readBuf struct {
	b   []byte
	pos int
}

func (r *readBuf) int32() (int32, error) {
	if r.pos+4 > len(r.b) {
		return 0, io.ErrUnexpectedEOF
	}
	v := int32(binary.BigEndian.Uint32(r.b[r.pos:]))
	r.pos += 4
	return v, nil
}

func (r *readBuf) int16() (int16, error) {
	if r.pos+2 > len(r.b) {
		return 0, io.ErrUnexpectedEOF
	}
	v := int16(binary.BigEndian.Uint16(r.b[r.pos:]))
	r.pos += 2
	return v, nil
}

func (r *readBuf) byte() (byte, error) {
	if r.pos >= len(r.b) {
		return 0, io.ErrUnexpectedEOF
	}
	v := r.b[r.pos]
	r.pos++
	return v, nil
}

// cstring reads a NUL-terminated string.
func (r *readBuf) cstring() (string, error) {
	for i := r.pos; i < len(r.b); i++ {
		if r.b[i] == 0 {
			s := string(r.b[r.pos:i])
			r.pos = i + 1
			return s, nil
		}
	}
	return "", io.ErrUnexpectedEOF
}

// bytes reads n raw bytes.
func (r *readBuf) bytes(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.b) {
		return nil, io.ErrUnexpectedEOF
	}
	v := r.b[r.pos : r.pos+n]
	r.pos += n
	return v, nil
}

// writeBuf accumulates outgoing messages. Messages are framed locally
// (beginMsg/endMsg patch the length word) and the whole buffer is handed to
// the connection's buffered writer; the socket write is where backpressure
// from slow clients materializes.
type writeBuf struct {
	buf    []byte
	msgize int // offset of the current message's length word
}

func (w *writeBuf) beginMsg(typ byte) {
	w.buf = append(w.buf, typ, 0, 0, 0, 0)
	w.msgize = len(w.buf) - 4
}

func (w *writeBuf) endMsg() {
	binary.BigEndian.PutUint32(w.buf[w.msgize:], uint32(len(w.buf)-w.msgize))
}

func (w *writeBuf) int32(v int32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(v))
}

func (w *writeBuf) int16(v int16) {
	w.buf = binary.BigEndian.AppendUint16(w.buf, uint16(v))
}

func (w *writeBuf) byte(v byte) { w.buf = append(w.buf, v) }

func (w *writeBuf) string(s string) {
	w.buf = append(w.buf, s...)
	w.buf = append(w.buf, 0)
}

func (w *writeBuf) bytes(b []byte) { w.buf = append(w.buf, b...) }

// reset drops buffered output (after it has been written out).
func (w *writeBuf) reset() { w.buf = w.buf[:0] }

// SQLSTATE codes the server emits.
const (
	codeSyntaxError         = "42601"
	codeUndefinedTable      = "42P01"
	codeUndefinedColumn     = "42703"
	codeUndefinedObject     = "42704"
	codeInvalidParamValue   = "22023"
	codeQueryCanceled       = "57014"
	codeTooManyConns        = "53300"
	codeAdmissionRejected   = "53400"
	codeProtocolViolation   = "08P01"
	codeFeatureNotSupported = "0A000"
	codeInvalidSQLStateStmt = "26000" // invalid_sql_statement_name
	codeInvalidCursorName   = "34000"
	codeAdminShutdown       = "57P01"
	codeInternalError       = "XX000"
)
