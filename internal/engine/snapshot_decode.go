package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"elastisched/internal/cwf"
	"elastisched/internal/job"
	"elastisched/internal/metrics"
)

// ErrSnapshotVersion reports a snapshot of a version other than
// SnapshotVersion. DecodeSnapshot and Restore wrap it.
var ErrSnapshotVersion = errors.New("snapshot version")

func versionError(v int) error {
	return fmt.Errorf("engine: %w %d, want %d", ErrSnapshotVersion, v, SnapshotVersion)
}

// DecodeSnapshot reads a snapshot previously written by Encode.
//
// It accepts exactly the inputs json.NewDecoder(r).Decode accepts, and
// decodes them to the same value: the first JSON value of r, with unknown
// keys ignored, object keys matched case-insensitively, and whatever
// follows the value ignored. The bulk of an encoded snapshot is four
// arrays — jobs, events, metrics.per_job and metrics.busy_steps — which a
// cursor decodes straight into their slices when they are in the form
// Encode writes. Every other field, and any hot array in another form,
// goes to encoding/json, whose struct tags stay the one definition of the
// fields. Anything the cursor does not expect of the snapshot's outline
// (an escaped or case-folded key, a repeated hot key, a malformed object)
// sends the whole input to encoding/json.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	var data []byte
	var readErr error
	if b, ok := r.(*bytes.Buffer); ok {
		data = b.Next(b.Len())
	} else {
		data, readErr = io.ReadAll(r)
	}
	d := snapDecoder{data: data}
	sn, ok := d.decode()
	if !ok {
		sn = new(Snapshot)
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(sn); err != nil {
			if readErr != nil && (err == io.EOF || err == io.ErrUnexpectedEOF) {
				err = readErr // the value was cut short where the reader failed
			}
			off := int64(len(data))
			var se *json.SyntaxError
			var te *json.UnmarshalTypeError
			switch {
			case errors.As(err, &se):
				off = se.Offset
			case errors.As(err, &te):
				off = te.Offset
			}
			return nil, fmt.Errorf("engine: decoding snapshot: at byte %d: %w", off, err)
		}
	}
	if sn.Version != SnapshotVersion {
		return nil, versionError(sn.Version)
	}
	return sn, nil
}

// snapDecoder is a cursor over one encoded snapshot. rest collects the
// "key":value pairs the cursor does not decode itself, re-assembled into
// the snapshot's object outline for encoding/json.
type snapDecoder struct {
	data []byte
	i    int
	rest []byte
}

// decode walks the top-level object. It reports false when the input
// needs the reference decoder: outside the hot arrays it accepts only an
// outline it can prove encoding/json reads the same way, and it defers
// all validation of the other values to encoding/json.
func (d *snapDecoder) decode() (*Snapshot, bool) {
	var (
		jobs   []job.Job
		events []EventSnap
		perJob []metrics.JobPoint
		busy   []metrics.BusyStep
		seen   [5]bool // jobs, events, metrics, per_job, busy_steps
	)
	d.rest = make([]byte, 0, 4096)
	metricsMember := func(key []byte) bool {
		switch string(key) {
		case "per_job":
			return hot(d, key, &seen[3], &perJob, 30, (*snapDecoder).jobPoint)
		case "busy_steps":
			return hot(d, key, &seen[4], &busy, 16, (*snapDecoder).busyStep)
		}
		return !foldsTo(key, "per_job", "busy_steps") && d.raw(key)
	}
	member := func(key []byte) bool {
		switch string(key) {
		case "jobs":
			return hot(d, key, &seen[0], &jobs, 200, (*snapDecoder).job)
		case "events":
			return hot(d, key, &seen[1], &events, 28, (*snapDecoder).event)
		case "metrics":
			if seen[2] {
				return false
			}
			seen[2] = true
			if d.i == len(d.data) || d.data[d.i] != '{' {
				return d.raw(key)
			}
			d.pairStart(key)
			return d.object(metricsMember)
		}
		return !foldsTo(key, "jobs", "events", "metrics") && d.raw(key)
	}
	d.space()
	if d.i == len(d.data) || d.data[d.i] != '{' || !d.object(member) {
		return nil, false
	}
	sn := new(Snapshot)
	if err := json.Unmarshal(d.rest, sn); err != nil {
		return nil, false
	}
	// A decoded array is never nil; one that went to rest is nil here.
	if jobs != nil {
		sn.Jobs = jobs
	}
	if events != nil {
		sn.Events = events
	}
	if perJob != nil {
		sn.Metrics.PerJob = perJob
	}
	if busy != nil {
		sn.Metrics.BusySteps = busy
	}
	return sn, true
}

// hot decodes the hot array under key into *dst, or, when elem cannot,
// copies it to rest. A key seen before sends the input to the reference
// decoder: encoding/json decodes a repeated array into the slice the first
// one filled.
func hot[T any](d *snapDecoder, key []byte, seen *bool, dst *[]T, minLen int, elem func(*snapDecoder, *T) bool) bool {
	if *seen {
		return false
	}
	*seen = true
	out, ok := decodeArray(d, minLen, elem)
	if !ok {
		return d.raw(key)
	}
	*dst = out
	return true
}

// object walks the object at the cursor, copying its braces to rest and
// calling member with the cursor on each member's value, which member
// consumes. Keys must be plain strings: an escaped or non-ASCII key could
// unquote or case-fold to a hot key, so it sends the input to the
// reference decoder.
func (d *snapDecoder) object(member func(key []byte) bool) bool {
	d.i++ // '{'
	d.rest = append(d.rest, '{')
	d.space()
	if d.lit("}") {
		d.rest = append(d.rest, '}')
		return true
	}
	for {
		key, ok := d.plainString()
		if !ok {
			return false
		}
		d.space()
		if !d.lit(":") {
			return false
		}
		d.space()
		if !member(key) {
			return false
		}
		d.space()
		if d.lit("}") {
			d.rest = append(d.rest, '}')
			return true
		}
		if !d.lit(",") {
			return false
		}
		d.space()
	}
}

// pairStart appends `"key":` to rest, after a comma unless it opens an
// object.
func (d *snapDecoder) pairStart(key []byte) {
	if d.rest[len(d.rest)-1] != '{' {
		d.rest = append(d.rest, ',')
	}
	d.rest = append(d.rest, '"')
	d.rest = append(d.rest, key...)
	d.rest = append(d.rest, '"', ':')
}

// raw copies the member key and the value at the cursor to rest. It finds
// the value's extent without validating it: encoding/json validates rest
// as a whole, and a value that is valid there is valid, and the same
// value, in the input.
func (d *snapDecoder) raw(key []byte) bool {
	start := d.i
	if !d.skip() {
		return false
	}
	d.pairStart(key)
	d.rest = append(d.rest, d.data[start:d.i]...)
	return true
}

// skip advances past the value at the cursor: a string to its closing
// quote, an object or array to its matching bracket, and a number or
// literal over the characters either may hold.
func (d *snapDecoder) skip() bool {
	data, i := d.data, d.i
	if i == len(data) {
		return false
	}
	switch data[i] {
	case '"':
		return d.skipString()
	case '{', '[':
		depth := 0
		for i < len(data) {
			switch data[i] {
			case '"':
				d.i = i
				if !d.skipString() {
					return false
				}
				i = d.i
				continue
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					d.i = i + 1
					return true
				}
			}
			i++
		}
		return false
	}
	start := i
	for i < len(data) {
		c := data[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '-' || c == '+' || c == '.') {
			break
		}
		i++
	}
	d.i = i
	return i > start
}

// skipString advances past the string opening at the cursor.
func (d *snapDecoder) skipString() bool {
	for i := d.i + 1; i < len(d.data); i++ {
		switch d.data[i] {
		case '\\':
			i++
		case '"':
			d.i = i + 1
			return true
		}
	}
	return false
}

// foldsTo reports whether key matches one of names case-insensitively;
// key is ASCII, so ASCII folding is encoding/json's folding.
func foldsTo(key []byte, names ...string) bool {
	for _, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return true
		}
	}
	return false
}

// space skips JSON whitespace.
func (d *snapDecoder) space() {
	for d.i < len(d.data) {
		switch d.data[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// lit consumes s if the input continues with it.
func (d *snapDecoder) lit(s string) bool {
	if len(d.data)-d.i >= len(s) && string(d.data[d.i:d.i+len(s)]) == s {
		d.i += len(s)
		return true
	}
	return false
}

// decodeArray decodes the array at the cursor, each element by elem, into
// a slice pre-sized from the element count; it reports false, with the
// cursor back at the array, on any element elem does not decode. The count is the number of objects up to the first ']' —
// the array's end in Encode's output unless an element holds an array —
// capped by the shortest element's length minLen, so no input inflates
// the allocation.
func decodeArray[T any](d *snapDecoder, minLen int, elem func(*snapDecoder, *T) bool) ([]T, bool) {
	start := d.i
	if !d.lit("[") {
		return nil, false
	}
	n := 0
	if end := bytes.IndexByte(d.data[d.i:], ']'); end > 0 {
		span := d.data[d.i : d.i+end]
		n = min(bytes.Count(span, []byte("{")), len(span)/minLen+1)
	}
	out := make([]T, 0, n)
	if d.lit("]") {
		return out, true
	}
	for {
		var zero T
		out = append(out, zero)
		if !elem(d, &out[len(out)-1]) {
			d.i = start
			return nil, false
		}
		if d.lit("]") {
			return out, true
		}
		if !d.lit(",") {
			d.i = start
			return nil, false
		}
	}
}

func (d *snapDecoder) job(j *job.Job) bool {
	return d.lit(`{"ID":`) && intValue(d, &j.ID) &&
		d.lit(`,"Class":`) && uint8Value(d, &j.Class) &&
		d.lit(`,"Size":`) && intValue(d, &j.Size) &&
		d.lit(`,"Dur":`) && intValue(d, &j.Dur) &&
		d.lit(`,"Arrival":`) && intValue(d, &j.Arrival) &&
		d.lit(`,"Actual":`) && intValue(d, &j.Actual) &&
		d.lit(`,"ReqStart":`) && intValue(d, &j.ReqStart) &&
		d.lit(`,"SCount":`) && intValue(d, &j.SCount) &&
		d.lit(`,"LastSkip":`) && intValue(d, &j.LastSkip) &&
		d.lit(`,"Rigid":`) && d.boolean(&j.Rigid) &&
		d.lit(`,"Retries":`) && intValue(d, &j.Retries) &&
		d.lit(`,"MinProcs":`) && intValue(d, &j.MinProcs) &&
		d.lit(`,"MaxProcs":`) && intValue(d, &j.MaxProcs) &&
		d.lit(`,"CkptAt":`) && intValue(d, &j.CkptAt) &&
		d.lit(`,"State":`) && uint8Value(d, &j.State) &&
		d.lit(`,"StartTime":`) && intValue(d, &j.StartTime) &&
		d.lit(`,"EndTime":`) && intValue(d, &j.EndTime) &&
		d.lit(`,"FinishTime":`) && intValue(d, &j.FinishTime) &&
		d.lit("}")
}

func (d *snapDecoder) event(ev *EventSnap) bool {
	if !d.lit(`{"kind":`) || !d.kind(&ev.Kind) ||
		!d.lit(`,"time":`) || !intValue(d, &ev.Time) ||
		!d.lit(`,"job":`) || !intValue(d, &ev.Job) {
		return false
	}
	if d.lit(`,"cmd":`) {
		c := new(cwf.Command)
		if !d.lit(`{"JobID":`) || !intValue(d, &c.JobID) ||
			!d.lit(`,"Issue":`) || !intValue(d, &c.Issue) ||
			!d.lit(`,"Type":`) || !uint8Value(d, &c.Type) ||
			!d.lit(`,"Amount":`) || !intValue(d, &c.Amount) ||
			!d.lit("}") {
			return false
		}
		ev.Cmd = c
	}
	if d.lit(`,"groups":[`) {
		ev.Groups = []int{}
		for !d.lit("]") {
			var g int
			if len(ev.Groups) > 0 && !d.lit(",") || !intValue(d, &g) {
				return false
			}
			ev.Groups = append(ev.Groups, g)
		}
	}
	return d.lit("}")
}

func (d *snapDecoder) jobPoint(p *metrics.JobPoint) bool {
	return d.lit(`{"arrival":`) && intValue(d, &p.Arrival) &&
		d.lit(`,"finish":`) && intValue(d, &p.Finish) &&
		d.lit(`,"wait":`) && d.float(&p.Wait) &&
		d.lit("}")
}

func (d *snapDecoder) busyStep(b *metrics.BusyStep) bool {
	return d.lit(`{"t":`) && intValue(d, &b.T) &&
		d.lit(`,"busy":`) && intValue(d, &b.Busy) &&
		d.lit("}")
}

// plainString reads a string of ASCII bytes from space up and without
// escapes, which unquotes to its own bytes.
func (d *snapDecoder) plainString() ([]byte, bool) {
	if !d.lit(`"`) {
		return nil, false
	}
	for i := d.i; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			s := d.data[d.i:i]
			d.i = i + 1
			return s, true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// kind decodes an event kind from a plain string. The kinds Encode writes
// come back as the constants, without an allocation.
func (d *snapDecoder) kind(dst *string) bool {
	s, ok := d.plainString()
	if !ok {
		return false
	}
	for _, k := range [...]string{evArrive, evComplete, evCommand, evWake, evFail, evRepair, evCkpt} {
		if string(s) == k {
			*dst = k
			return true
		}
	}
	*dst = string(s)
	return true
}

// integer reads a JSON number that is an integer of at most 18 digits
// (so it fits in int64): an optional minus, then 0 or a digit string
// without a leading zero. A fraction or exponent is not consumed, so the
// literal the caller expects next fails to match.
func (d *snapDecoder) integer() (n int64, neg, ok bool) {
	b := d.data[d.i:]
	i := 0
	if len(b) > 0 && b[0] == '-' {
		neg, i = true, 1
	}
	start := i
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		n = n*10 + int64(c)
	}
	if digits := i - start; digits == 0 || digits > 18 || digits > 1 && b[start] == '0' {
		return 0, false, false
	}
	d.i += i
	if neg {
		n = -n
	}
	return n, neg, true
}

// intValue decodes an integer into a signed field, as encoding/json's
// strconv.ParseInt and overflow check accept it.
func intValue[T ~int | ~int64](d *snapDecoder, dst *T) bool {
	n, _, ok := d.integer()
	if !ok || int64(T(n)) != n {
		return false
	}
	*dst = T(n)
	return true
}

// uint8Value decodes an integer into a byte-sized enum field, as
// encoding/json's strconv.ParseUint and overflow check accept it: no sign.
func uint8Value[T ~uint8](d *snapDecoder, dst *T) bool {
	n, neg, ok := d.integer()
	if !ok || neg || n > 255 {
		return false
	}
	*dst = T(n)
	return true
}

func (d *snapDecoder) boolean(dst *bool) bool {
	switch {
	case d.lit("true"):
		*dst = true
	case d.lit("false"):
		*dst = false
	default:
		return false
	}
	return true
}

// float decodes a JSON number with strconv.ParseFloat, the call
// encoding/json makes for a float64 field.
func (d *snapDecoder) float(dst *float64) bool {
	data, i := d.data, d.i
	digits := func() bool {
		j := i
		for i < len(data) && data[i]-'0' <= 9 {
			i++
		}
		return i > j
	}
	if i < len(data) && data[i] == '-' {
		i++
	}
	if i < len(data) && data[i] == '0' {
		i++
	} else if !digits() {
		return false
	}
	if i < len(data) && data[i] == '.' {
		i++
		if !digits() {
			return false
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if !digits() {
			return false
		}
	}
	f, err := strconv.ParseFloat(string(data[d.i:i]), 64)
	if err != nil {
		return false
	}
	*dst, d.i = f, i
	return true
}
