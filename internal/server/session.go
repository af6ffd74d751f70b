package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"recycledb"
	"recycledb/internal/catalog"
	"recycledb/internal/expr"
	"recycledb/internal/sql"
	"recycledb/internal/vector"
)

// flushThreshold is the buffered-output size past which the session pushes
// to the socket mid-result. Combined with the bufio layer this makes the
// socket the pipeline's consumer: when the client stops reading, the write
// blocks, Rows.Next is never called again, and the pipeline stalls at a
// batch boundary instead of materializing the result server-side.
const flushThreshold = 32 * 1024

// preparedStmt is a session-level prepared statement: the engine handle
// (shared compiled form via the plan LRU) plus the wire-level bookkeeping
// that belongs to the protocol, not the engine — the client's declared
// parameter OIDs.
type preparedStmt struct {
	stmt      *recycledb.Stmt
	paramOIDs []int32      // one per parameter Bind supplies, oidUnknown if undeclared
	utility   *sql.Utility // non-nil: SET/SHOW/etc. or the empty statement, handled by the session
}

// portal is a bound (and possibly partially executed) statement. rows is
// non-nil only while the portal is suspended between Execute messages with
// a row limit; pending holds the tail of the batch the limit split.
type portal struct {
	name       string
	ps         *preparedStmt
	args       []any // decoded client parameters, $N order
	rows       *recycledb.Rows
	pending    *recycledb.Batch // cloned remainder of a limit-split batch
	pendingOff int
	sent       int64 // rows sent across all Executes of this portal
}

// session is one client connection: the read-decode-execute-write loop plus
// the per-session prepared statement and portal tables.
type session struct {
	srv  *Server
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	wb   writeBuf

	ctx    context.Context // session lifetime; derived from Serve's ctx
	cancel context.CancelFunc

	pid    int32
	secret int32

	params  map[string]string // startup + SET parameters
	stmts   map[string]*preparedStmt
	portals map[string]*portal

	stmtTimeout time.Duration // 0 = none; SET statement_timeout overrides
	lastSent    int64         // rows sent by the last portal-less SELECT

	// ignoreTillSync: an extended-protocol message errored; skip everything
	// until the next Sync, per protocol.
	ignoreTillSync bool
}

func (sess *session) serve() error {
	if err := sess.startup(); err != nil {
		return err
	}
	defer sess.closeAllPortals()
	for {
		if sess.srv.isDraining() {
			sess.fatalError(codeAdminShutdown, "terminating connection: server is shutting down")
			return nil
		}
		typ, body, err := readTyped(sess.br)
		if err != nil {
			return err // disconnect (io.EOF) or framing error
		}
		sess.srv.markBusy(sess, true)
		err = sess.dispatch(typ, body)
		sess.srv.markBusy(sess, false)
		if err != nil {
			if errors.Is(err, errTerminate) {
				return nil
			}
			return err
		}
	}
}

var errTerminate = errors.New("pgwire: client terminated")

// startup negotiates the connection: SSL/GSS declines, CancelRequest
// short-circuits, then the startup packet's parameters, trust auth, and the
// initial parameter/key/ready volley.
func (sess *session) startup() error {
	for {
		body, err := readStartup(sess.br)
		if err != nil {
			return err
		}
		rb := readBuf{b: body}
		code, err := rb.int32()
		if err != nil {
			return err
		}
		switch code {
		case sslRequestCode, gssEncReqCode:
			// Declined: plaintext only.
			if _, err := sess.conn.Write([]byte{'N'}); err != nil {
				return err
			}
			continue
		case cancelReqCode:
			pid, err1 := rb.int32()
			secret, err2 := rb.int32()
			if err1 == nil && err2 == nil {
				sess.srv.cancelBackend(pid, secret)
			}
			return errTerminate // cancel connections close immediately
		case protocolVersion3:
			for {
				k, err := rb.cstring()
				if err != nil || k == "" {
					break
				}
				v, err := rb.cstring()
				if err != nil {
					break
				}
				sess.params[k] = v
			}
			return sess.finishStartup()
		default:
			return fmt.Errorf("pgwire: unsupported protocol version %d", code)
		}
	}
}

func (sess *session) finishStartup() error {
	// Trust auth: everyone is welcome; this is a research engine, not a
	// bank. AuthenticationOk, server parameters, cancel key, ready.
	sess.wb.beginMsg(msgAuth)
	sess.wb.int32(0)
	sess.wb.endMsg()
	status := [][2]string{
		{"server_version", sess.srv.cfg.ServerVersion},
		{"server_encoding", "UTF8"},
		{"client_encoding", "UTF8"},
		{"DateStyle", "ISO, MDY"},
		{"integer_datetimes", "on"},
		{"standard_conforming_strings", "on"},
		{"TimeZone", "UTC"},
		{"is_superuser", "on"},
		{"session_authorization", sess.params["user"]},
	}
	for _, kv := range status {
		sess.wb.beginMsg(msgParameterStatus)
		sess.wb.string(kv[0])
		sess.wb.string(kv[1])
		sess.wb.endMsg()
	}
	sess.wb.beginMsg(msgBackendKeyData)
	sess.wb.int32(sess.pid)
	sess.wb.int32(sess.secret)
	sess.wb.endMsg()
	sess.readyForQuery()
	return sess.flush()
}

func (sess *session) dispatch(typ byte, body []byte) error {
	if sess.ignoreTillSync && typ != msgSync && typ != msgTerminate {
		return nil
	}
	rb := readBuf{b: body}
	switch typ {
	case msgQuery:
		return sess.handleQuery(&rb)
	case msgParse:
		return sess.extended(sess.handleParse(&rb))
	case msgBind:
		return sess.extended(sess.handleBind(&rb))
	case msgDescribe:
		return sess.extended(sess.handleDescribe(&rb))
	case msgExecute:
		return sess.extended(sess.handleExecute(&rb))
	case msgClose:
		return sess.extended(sess.handleClose(&rb))
	case msgFlush:
		return sess.flush()
	case msgSync:
		sess.ignoreTillSync = false
		sess.closeAllPortals()
		sess.readyForQuery()
		return sess.flush()
	case msgTerminate:
		return errTerminate
	case msgPassword:
		return nil // trust auth never asks, but tolerate a stray reply
	default:
		sess.errorResponse(codeProtocolViolation, fmt.Sprintf("unknown message type %q", typ))
		sess.ignoreTillSync = true
		return sess.flush()
	}
}

// extended wraps an extended-protocol handler result: a protocol-level
// error (not an io error) becomes an ErrorResponse and arms
// ignoreTillSync.
func (sess *session) extended(err error) error {
	if err == nil {
		return nil
	}
	if err := sess.reportError(err); err != nil {
		return err
	}
	sess.ignoreTillSync = true
	return sess.flush()
}

// reportError sends a statement's error as an ErrorResponse, or returns
// the transport error that must tear the connection down instead.
func (sess *session) reportError(err error) error {
	var ioErr *ioError
	if errors.As(err, &ioErr) {
		return ioErr.err
	}
	code, msg := sqlstateFor(err)
	sess.errorResponse(code, msg)
	return nil
}

// ioError marks a transport failure that must tear the connection down
// rather than turn into an ErrorResponse.
type ioError struct{ err error }

func (e *ioError) Error() string { return e.err.Error() }

// ── simple query protocol ────────────────────────────────────────────────

func (sess *session) handleQuery(rb *readBuf) error {
	text, err := rb.cstring()
	if err != nil {
		return err
	}
	stmts := sql.Split(text)
	if len(stmts) == 0 {
		stmts = []string{text} // the empty statement
	}
	for _, one := range stmts {
		if err := sess.runSimple(one); err != nil {
			if err := sess.reportError(err); err != nil {
				return err
			}
			break // error aborts the rest of a multi-statement string
		}
	}
	sess.readyForQuery()
	return sess.flush()
}

// runSimple executes one statement of a simple-protocol query string: an
// unnamed statement run once without parameters.
func (sess *session) runSimple(one string) error {
	ps, err := sess.parseStatement(one, nil)
	if err != nil {
		return err
	}
	if len(ps.paramOIDs) > 0 {
		return fmt.Errorf("there is no parameter $1: the simple query protocol cannot bind parameters")
	}
	return sess.execute(ps, nil, 0, nil)
}

// ── extended query protocol ──────────────────────────────────────────────

func (sess *session) handleParse(rb *readBuf) error {
	name, err := rb.cstring()
	if err != nil {
		return err
	}
	query, err := rb.cstring()
	if err != nil {
		return err
	}
	nOids, err := rb.int16()
	if err != nil {
		return err
	}
	oids := make([]int32, nOids)
	for i := range oids {
		if oids[i], err = rb.int32(); err != nil {
			return err
		}
	}
	if name != "" {
		if _, exists := sess.stmts[name]; exists {
			return fmt.Errorf("prepared statement %q already exists", name)
		}
	}
	ps, err := sess.parseStatement(query, oids)
	if err != nil {
		return err
	}
	sess.stmts[name] = ps
	sess.wb.beginMsg(msgParseComplete)
	sess.wb.endMsg()
	return nil
}

// parseStatement classifies query: a utility statement (the empty one
// included), or one the engine prepares.
func (sess *session) parseStatement(query string, oids []int32) (*preparedStmt, error) {
	u, err := sql.ParseUtility(query)
	if err != nil {
		return nil, err
	}
	if u != nil {
		return &preparedStmt{utility: u}, nil
	}
	stmt, err := sess.srv.eng.Prepare(query)
	if err != nil {
		return nil, err
	}
	padded := make([]int32, stmt.NumParams())
	copy(padded, oids)
	return &preparedStmt{stmt: stmt, paramOIDs: padded}, nil
}

func (sess *session) handleBind(rb *readBuf) error {
	portalName, err := rb.cstring()
	if err != nil {
		return err
	}
	stmtName, err := rb.cstring()
	if err != nil {
		return err
	}
	ps, ok := sess.stmts[stmtName]
	if !ok {
		return &namedError{code: codeInvalidSQLStateStmt,
			msg: fmt.Sprintf("prepared statement %q does not exist", stmtName)}
	}
	nFmt, err := rb.int16()
	if err != nil {
		return err
	}
	fmts := make([]int16, nFmt)
	for i := range fmts {
		if fmts[i], err = rb.int16(); err != nil {
			return err
		}
	}
	nParams, err := rb.int16()
	if err != nil {
		return err
	}
	if int(nParams) != len(ps.paramOIDs) {
		return fmt.Errorf("bind message supplies %d parameters, but prepared statement %q requires %d",
			nParams, stmtName, len(ps.paramOIDs))
	}
	args := make([]any, nParams)
	for i := range args {
		n, err := rb.int32()
		if err != nil {
			return err
		}
		if n == -1 {
			return fmt.Errorf("parameter $%d is NULL; the engine has no NULL values", i+1)
		}
		data, err := rb.bytes(int(n))
		if err != nil {
			return err
		}
		format := int16(0)
		if len(fmts) == 1 {
			format = fmts[0]
		} else if i < len(fmts) {
			format = fmts[i]
		}
		args[i], err = decodeParam(ps.paramOIDs[i], format, data)
		if err != nil {
			return fmt.Errorf("parameter $%d: %w", i+1, err)
		}
	}
	nResFmt, err := rb.int16()
	if err != nil {
		return err
	}
	for i := int16(0); i < nResFmt; i++ {
		f, err := rb.int16()
		if err != nil {
			return err
		}
		if f != 0 {
			return &namedError{code: codeFeatureNotSupported,
				msg: "binary result format is not supported; request text format"}
		}
	}
	if portalName != "" {
		if _, exists := sess.portals[portalName]; exists {
			return fmt.Errorf("portal %q already exists", portalName)
		}
	} else if old := sess.portals[""]; old != nil {
		sess.destroyPortal(old)
	}
	sess.portals[portalName] = &portal{name: portalName, ps: ps, args: args}
	sess.wb.beginMsg(msgBindComplete)
	sess.wb.endMsg()
	return nil
}

func (sess *session) handleDescribe(rb *readBuf) error {
	typ, err := rb.byte()
	if err != nil {
		return err
	}
	name, err := rb.cstring()
	if err != nil {
		return err
	}
	switch typ {
	case 'S':
		ps, ok := sess.stmts[name]
		if !ok {
			return &namedError{code: codeInvalidSQLStateStmt,
				msg: fmt.Sprintf("prepared statement %q does not exist", name)}
		}
		sess.wb.beginMsg(msgParamDescription)
		sess.wb.int16(int16(len(ps.paramOIDs)))
		for _, oid := range ps.paramOIDs {
			sess.wb.int32(oid)
		}
		sess.wb.endMsg()
		sess.describeResult(ps, nil)
		return nil
	case 'P':
		p, ok := sess.portals[name]
		if !ok {
			return &namedError{code: codeInvalidCursorName,
				msg: fmt.Sprintf("portal %q does not exist", name)}
		}
		sess.describeResult(p.ps, p.args)
		return nil
	default:
		return fmt.Errorf("invalid Describe kind %q", typ)
	}
}

// describeResult emits RowDescription for a SELECT whose schema can be
// resolved (a bound portal, or an unbound statement via dummy bindings
// synthesized from the declared parameter OIDs), NoData otherwise.
func (sess *session) describeResult(ps *preparedStmt, args []any) {
	if ps.utility != nil || !ps.stmt.IsQuery() {
		sess.wb.beginMsg(msgNoData)
		sess.wb.endMsg()
		return
	}
	if args == nil {
		args = dummyArgs(ps)
	}
	if schema, err := ps.stmt.ResultSchema(args...); err == nil {
		writeRowDescription(&sess.wb, schema)
		return
	}
	// Unresolvable pre-execution (untyped parameters in positions the dummy
	// guess got wrong): NoData. Execution will resolve with real values or
	// report the real error.
	sess.wb.beginMsg(msgNoData)
	sess.wb.endMsg()
}

// dummyArgs synthesizes one zero value per declared parameter OID, for
// resolving a statement's result schema before any Bind.
func dummyArgs(ps *preparedStmt) []any {
	args := make([]any, len(ps.paramOIDs))
	for i, oid := range ps.paramOIDs {
		switch oid {
		case oidFloat4, oidFloat8, oidNumeric:
			args[i] = float64(0)
		case oidText, oidVarchar, oidBytea:
			args[i] = ""
		case oidBool:
			args[i] = false
		case oidDate:
			args[i] = vector.NewDateDatum(0)
		default:
			// Unknown and integer OIDs: int64 coerces widely (to float,
			// to date) so it is the guess most likely to resolve.
			args[i] = int64(0)
		}
	}
	return args
}

func (sess *session) handleExecute(rb *readBuf) error {
	name, err := rb.cstring()
	if err != nil {
		return err
	}
	maxRows, err := rb.int32()
	if err != nil {
		return err
	}
	p, ok := sess.portals[name]
	if !ok {
		return &namedError{code: codeInvalidCursorName,
			msg: fmt.Sprintf("portal %q does not exist", name)}
	}
	if p.rows != nil || p.pending != nil {
		return sess.resumePortal(p, int(maxRows))
	}
	return sess.execute(p.ps, p.args, int(maxRows), p)
}

// execute runs a parsed statement. p is the portal an extended-protocol
// Execute runs, suspended at maxRows > 0; without one (the simple protocol)
// a query's RowDescription goes ahead of its rows.
func (sess *session) execute(ps *preparedStmt, args []any, maxRows int, p *portal) error {
	switch {
	case ps.utility != nil:
		return sess.runUtility(ps.utility)
	case !ps.stmt.IsQuery():
		return sess.runDML(ps.stmt, args)
	}
	return sess.runSelect(ps.stmt, args, maxRows, p)
}

func (sess *session) handleClose(rb *readBuf) error {
	typ, err := rb.byte()
	if err != nil {
		return err
	}
	name, err := rb.cstring()
	if err != nil {
		return err
	}
	switch typ {
	case 'S':
		delete(sess.stmts, name) // closing a nonexistent statement is not an error
	case 'P':
		if p, ok := sess.portals[name]; ok {
			sess.destroyPortal(p)
		}
	default:
		return fmt.Errorf("invalid Close kind %q", typ)
	}
	sess.wb.beginMsg(msgCloseComplete)
	sess.wb.endMsg()
	return nil
}

// ── statement execution ──────────────────────────────────────────────────

// statementCtx derives the per-statement context: session lifetime, the
// statement timeout if set, and registration for wire CancelRequest.
func (sess *session) statementCtx() (context.Context, context.CancelFunc) {
	ctx := sess.ctx
	var cancel context.CancelFunc
	if sess.stmtTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, sess.stmtTimeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	sess.srv.setStatementCancel(sess.pid, cancel)
	return ctx, func() {
		sess.srv.setStatementCancel(sess.pid, nil)
		cancel()
	}
}

func (sess *session) runDML(stmt *recycledb.Stmt, args []any) error {
	ctx, done := sess.statementCtx()
	defer done()
	if err := sess.srv.adm.acquire(ctx); err != nil {
		return admissionErr(err)
	}
	defer sess.srv.adm.release()
	res, err := stmt.Exec(ctx, args...)
	if err != nil {
		return err
	}
	sess.commandCompleteRows(stmt.Verb(), res.RowsAffected)
	return nil
}

// runSelect streams a query to the wire. Without a portal (simple protocol)
// RowDescription goes before the rows; maxRows > 0 (extended protocol)
// suspends the portal at the limit.
func (sess *session) runSelect(stmt *recycledb.Stmt, args []any, maxRows int, p *portal) error {
	ctx, done := sess.statementCtx()
	defer done()
	if err := sess.srv.adm.acquire(ctx); err != nil {
		return admissionErr(err)
	}
	defer sess.srv.adm.release()
	rows, err := stmt.Query(ctx, args...)
	if err != nil {
		return err
	}
	if p == nil {
		writeRowDescription(&sess.wb, rows.Schema())
	}
	suspended, err := sess.streamRows(ctx, rows, maxRows, p)
	if err != nil {
		rows.Close()
		return err
	}
	if suspended {
		p.rows = rows
		sess.wb.beginMsg(msgPortalSuspended)
		sess.wb.endMsg()
		return nil
	}
	if err := rows.Close(); err != nil {
		return err
	}
	var sent int64
	if p != nil {
		sent = p.sent
	} else {
		sent = sess.lastSent
	}
	sess.commandCompleteRows(stmt.Verb(), sent)
	return nil
}

// resumePortal continues a suspended portal: drain the limit-split batch
// remainder first, then the stream, under a fresh statement timeout and a
// fresh admission slot (the slot was released at suspension so parked
// portals cannot starve the server).
func (sess *session) resumePortal(p *portal, maxRows int) error {
	ctx, done := sess.statementCtx()
	defer done()
	if err := sess.srv.adm.acquire(ctx); err != nil {
		return admissionErr(err)
	}
	defer sess.srv.adm.release()
	suspended, err := sess.streamRows(ctx, p.rows, maxRows, p)
	if err != nil {
		sess.destroyPortal(p)
		return err
	}
	if suspended {
		sess.wb.beginMsg(msgPortalSuspended)
		sess.wb.endMsg()
		return nil
	}
	if p.rows != nil {
		err = p.rows.Close()
		p.rows = nil
	}
	if err != nil {
		return err
	}
	sess.commandCompleteRows(p.ps.stmt.Verb(), p.sent)
	return nil
}

// streamRows encodes batches as DataRow messages, flushing through the
// socket at flushThreshold — the backpressure edge. With maxRows > 0 it
// stops at the limit, stashing any batch remainder in the portal, and
// reports suspended=true.
func (sess *session) streamRows(ctx context.Context, rows *recycledb.Rows, maxRows int, p *portal) (bool, error) {
	sent := 0
	emit := func(b *recycledb.Batch, from int) (int, error) {
		n := b.Len()
		for i := from; i < n; i++ {
			if maxRows > 0 && sent >= maxRows {
				return i, nil
			}
			sess.encodeDataRow(b, i)
			sent++
			if len(sess.wb.buf) >= flushThreshold {
				if err := sess.flush(); err != nil {
					return i, &ioError{err: err}
				}
			}
		}
		return n, nil
	}
	if p != nil && p.pending != nil {
		stop, err := emit(p.pending, p.pendingOff)
		if err != nil {
			return false, err
		}
		if stop < p.pending.Len() {
			p.pendingOff = stop
			p.sent += int64(sent)
			return true, nil
		}
		p.pending = nil
		p.pendingOff = 0
	}
	for {
		if maxRows > 0 && sent >= maxRows {
			// Limit landed exactly on a batch boundary.
			if p != nil {
				p.sent += int64(sent)
			}
			return true, nil
		}
		b, err := rows.Next(ctx)
		if err != nil {
			return false, err
		}
		if b == nil {
			break
		}
		stop, err := emit(b, 0)
		if err != nil {
			return false, err
		}
		if stop < b.Len() {
			// Limit split this batch: the next Next invalidates it, so the
			// remainder is cloned into the portal.
			p.pending = b.Clone()
			p.pendingOff = stop
			p.sent += int64(sent)
			return true, nil
		}
	}
	if p != nil {
		p.sent += int64(sent)
	} else {
		sess.lastSent = int64(sent)
	}
	return false, nil
}

// encodeDataRow appends one DataRow message for logical row i of batch b.
func (sess *session) encodeDataRow(b *recycledb.Batch, i int) {
	w := &sess.wb
	w.beginMsg(msgDataRow)
	w.int16(int16(len(b.Vecs)))
	phys := b.RowIdx(i)
	for _, v := range b.Vecs {
		lenAt := len(w.buf)
		w.int32(0) // patched below
		w.buf = appendDatumText(w.buf, v, phys)
		putInt32(w.buf[lenAt:], int32(len(w.buf)-lenAt-4))
	}
	w.endMsg()
}

// ── utility statements ───────────────────────────────────────────────────

// runUtility executes a utility statement in the session and completes it
// with its command tag; the empty statement has no tag and answers
// EmptyQueryResponse. The engine's writes are epoch-atomic per statement,
// so the transaction-control statements are no-ops; they exist so client
// libraries that always open a transaction still work.
func (sess *session) runUtility(u *sql.Utility) error {
	var err error
	switch u.Tag {
	case "":
		sess.wb.beginMsg(msgEmptyQuery)
		sess.wb.endMsg()
		return nil
	case "DISCARD ALL":
		sess.closeAllPortals()
		sess.stmts = make(map[string]*preparedStmt)
	case "SET":
		err = sess.runSet(u.Name, u.Value)
	case "RESET":
		if u.Name == "statement_timeout" || u.Name == "all" {
			sess.stmtTimeout = sess.srv.cfg.StatementTimeout
		}
	case "SHOW":
		err = sess.runShow(u.Name)
	}
	if err == nil {
		sess.commandComplete(u.Tag)
	}
	return err
}

// runSet applies SET name = value. statement_timeout and recycling_mode
// are live knobs; everything else is recorded and acknowledged so client
// libraries' session setup does not error out.
func (sess *session) runSet(name, value string) error {
	switch name {
	case "statement_timeout":
		d, err := parseTimeoutValue(value)
		if err != nil {
			return &namedError{code: codeInvalidParamValue, msg: err.Error()}
		}
		sess.stmtTimeout = d
	case "recycling_mode":
		mode, err := recycledb.ParseMode(value)
		if err != nil {
			return &namedError{code: codeInvalidParamValue, msg: err.Error()}
		}
		sess.srv.eng.SetMode(mode)
	default:
		sess.params[name] = value
	}
	return nil
}

// runShow answers SHOW name with a one-column, one-row text result.
func (sess *session) runShow(name string) error {
	var value string
	switch name {
	case "statement_timeout":
		value = formatTimeout(sess.stmtTimeout)
	case "recycling_mode":
		value = modeName(sess.srv.eng.Mode())
	case "server_version":
		value = sess.srv.cfg.ServerVersion
	case "transaction_isolation":
		value = "snapshot"
	default:
		v, ok := sess.params[name]
		if !ok {
			return &namedError{code: codeUndefinedObject,
				msg: fmt.Sprintf("unrecognized configuration parameter %q", name)}
		}
		value = v
	}
	writeRowDescription(&sess.wb, catalog.Schema{{Name: name, Typ: vector.String}})
	sess.wb.beginMsg(msgDataRow)
	sess.wb.int16(1)
	sess.wb.int32(int32(len(value)))
	sess.wb.bytes([]byte(value))
	sess.wb.endMsg()
	return nil
}

// parseTimeoutValue parses a statement_timeout setting: a bare integer is
// milliseconds (PostgreSQL convention), or a value with a unit suffix.
func parseTimeoutValue(v string) (time.Duration, error) {
	if ms, err := strconv.ParseInt(v, 10, 64); err == nil {
		if ms < 0 {
			return 0, fmt.Errorf("statement_timeout cannot be negative")
		}
		return time.Duration(ms) * time.Millisecond, nil
	}
	for _, u := range []struct {
		suffix string
		unit   time.Duration
	}{{"ms", time.Millisecond}, {"us", time.Microsecond}, {"min", time.Minute}, {"s", time.Second}, {"h", time.Hour}} {
		if n, ok := strings.CutSuffix(v, u.suffix); ok {
			ms, err := strconv.ParseInt(strings.TrimSpace(n), 10, 64)
			if err == nil && ms >= 0 {
				return time.Duration(ms) * u.unit, nil
			}
		}
	}
	return 0, fmt.Errorf("invalid statement_timeout value %q", v)
}

func formatTimeout(d time.Duration) string {
	return strconv.FormatInt(d.Milliseconds(), 10) + "ms"
}

func modeName(m recycledb.Mode) string {
	switch m {
	case recycledb.History:
		return "history"
	case recycledb.Speculative:
		return "speculative"
	case recycledb.Proactive:
		return "proactive"
	default:
		return "off"
	}
}

// ── response plumbing ────────────────────────────────────────────────────

func (sess *session) commandComplete(tag string) {
	sess.wb.beginMsg(msgCommandComplete)
	sess.wb.string(tag)
	sess.wb.endMsg()
}

// commandCompleteRows is commandComplete for a statement that returned or
// affected n rows, with the tag built in the write buffer.
func (sess *session) commandCompleteRows(verb string, n int64) {
	sess.wb.beginMsg(msgCommandComplete)
	sess.wb.buf = appendCommandTag(sess.wb.buf, verb, n)
	sess.wb.byte(0)
	sess.wb.endMsg()
}

func (sess *session) readyForQuery() {
	sess.wb.beginMsg(msgReadyForQuery)
	sess.wb.byte('I') // always idle: no multi-statement transactions
	sess.wb.endMsg()
}

func (sess *session) errorResponse(code, msg string) {
	writeErrorResponse(&sess.wb, "ERROR", code, msg)
	sess.srv.errorsSent.Add(1)
}

// fatalError sends a FATAL and flushes; used on the teardown path where the
// connection closes right after.
func (sess *session) fatalError(code, msg string) {
	writeErrorResponse(&sess.wb, "FATAL", code, msg)
	_ = sess.flush()
}

func writeErrorResponse(w *writeBuf, severity, code, msg string) {
	w.beginMsg(msgErrorResponse)
	w.byte('S')
	w.string(severity)
	w.byte('V')
	w.string(severity)
	w.byte('C')
	w.string(code)
	w.byte('M')
	w.string(msg)
	w.byte(0)
	w.endMsg()
}

// flush pushes buffered messages through the socket. The write deadline
// bounds how long a wedged client (not reading, window full) can pin a
// connection goroutine and its pipeline.
func (sess *session) flush() error {
	if len(sess.wb.buf) > 0 {
		if sess.srv.cfg.WriteTimeout > 0 {
			_ = sess.conn.SetWriteDeadline(time.Now().Add(sess.srv.cfg.WriteTimeout))
		}
		if _, err := sess.bw.Write(sess.wb.buf); err != nil {
			return err
		}
		sess.wb.reset()
	}
	return sess.bw.Flush()
}

func (sess *session) destroyPortal(p *portal) {
	if p.rows != nil {
		p.rows.Close()
		p.rows = nil
	}
	p.pending = nil
	delete(sess.portals, p.name)
}

func (sess *session) closeAllPortals() {
	for _, p := range sess.portals {
		sess.destroyPortal(p)
	}
}

// ── error → SQLSTATE mapping ─────────────────────────────────────────────

// namedError carries an explicit SQLSTATE.
type namedError struct {
	code string
	msg  string
}

func (e *namedError) Error() string { return e.msg }

var errAdmission = errors.New("too many concurrent statements")

func admissionErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return fmt.Errorf("%w: canceling statement while waiting for an execution slot: %w", errAdmission, err)
	}
	return err
}

// sqlstateFor maps engine and protocol errors to the SQLSTATE the client
// sees.
func sqlstateFor(err error) (code, msg string) {
	var ne *namedError
	if errors.As(err, &ne) {
		return ne.code, ne.msg
	}
	switch {
	case errors.Is(err, errAdmission):
		return codeAdmissionRejected, err.Error()
	case errors.Is(err, recycledb.ErrParse):
		return codeSyntaxError, err.Error()
	case errors.Is(err, recycledb.ErrUnknownTable):
		return codeUndefinedTable, err.Error()
	case errors.Is(err, recycledb.ErrStaleStmt):
		return codeUndefinedTable, err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		return codeQueryCanceled, "canceling statement due to statement timeout"
	case errors.Is(err, recycledb.ErrCanceled), errors.Is(err, context.Canceled):
		return codeQueryCanceled, "canceling statement due to user request"
	case errors.Is(err, recycledb.ErrNotQuery):
		return codeFeatureNotSupported, err.Error()
	case errors.Is(err, expr.ErrUnknownColumn):
		return codeUndefinedColumn, err.Error()
	default:
		return codeInternalError, err.Error()
	}
}

// appendCommandTag appends the CommandComplete tag for a statement of the
// given verb (recycledb.Stmt.Verb) that returned or affected n rows.
func appendCommandTag(dst []byte, verb string, n int64) []byte {
	switch verb {
	case "INSERT":
		dst = append(dst, "INSERT 0 "...)
	case "DELETE":
		dst = append(dst, "DELETE "...)
	case "CREATE":
		return append(dst, "CREATE TABLE"...)
	case "EXPLAIN":
		return append(dst, "EXPLAIN"...)
	default:
		dst = append(dst, "SELECT "...)
	}
	return strconv.AppendInt(dst, n, 10)
}

func putInt32(b []byte, v int32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}
