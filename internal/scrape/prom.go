package scrape

import (
	"fmt"
	"math"
	"strconv"
)

// Format selects a scrape target's wire exposition. The JSON payload is the
// bespoke in-house format; FormatProm is the Prometheus text exposition a
// real cloud exporter would serve. Both carry exactly the same information
// (tick, database id, KPI vector) and both parsers are strict: a healthy
// scrape decodes to bit-identical vectors regardless of format.
type Format int

const (
	// FormatJSON scrapes the bespoke JSON payload (the default).
	FormatJSON Format = iota
	// FormatProm scrapes the Prometheus text exposition.
	FormatProm
)

// String names the format (also the -scrape-format flag spelling).
func (f Format) String() string {
	switch f {
	case FormatJSON:
		return "json"
	case FormatProm:
		return "prom"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// ParseFormat parses a Format name.
func ParseFormat(s string) (Format, error) {
	for f := FormatJSON; f <= FormatProm; f++ {
		if f.String() == s {
			return f, nil
		}
	}
	return 0, fmt.Errorf("scrape: unknown scrape format %q", s)
}

// contentType is the response Content-Type the exporter serves for the
// format; accept is what the scraper asks for (content negotiation).
func (f Format) contentType() string {
	if f == FormatProm {
		return promContentType
	}
	return "application/json"
}

const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// AppendBody renders p in format f onto b (reusing b's backing storage) and
// returns the extended slice: the one-database case of AppendUnit, and the
// entry point cmd/bench measures the wire paths through.
func AppendBody(b []byte, p *Payload, f Format) []byte {
	return AppendUnit(b, []Payload{*p}, f)
}

// AppendUnit renders the payloads of several databases, in the order given
// (strictly increasing DB, as every unit body lists them), as one body in
// format f onto b. The exporter renders every response through it: a
// one-database body is the case len(ps) == 1.
func AppendUnit(b []byte, ps []Payload, f Format) []byte {
	if f == FormatProm {
		return appendProm(b, ps)
	}
	return appendPayloads(b, ps)
}

// ParseBody decodes a one-database body in format f into p, reusing
// p.Values' backing storage: the one-database case of ParseUnit, which
// rejects a body carrying any other number of databases.
func ParseBody(body []byte, p *Payload, f Format) error {
	one := [1]Payload{*p}
	ps, err := ParseUnit(body, one[:], f)
	if err == nil && len(ps) != 1 {
		err = fmt.Errorf("scrape: body carries %d databases, want 1", len(ps))
	}
	*p = one[0]
	return err
}

// ParseUnit decodes a body in format f into ps[:0], extended by one payload
// per database it carries, and returns the extended slice. Each slot ps
// already holds keeps its Values' backing storage, so a warm decode into
// slots with the capacity allocates nothing. Both formats apply the same
// strict discipline: at least one database, databases in strictly
// increasing order, nothing after the last one but whitespace (JSON) or
// comments (prom); a healthy body decodes to bit-identical vectors either
// way. On error the payloads are unspecified.
func ParseUnit(body []byte, ps []Payload, f Format) ([]Payload, error) {
	if f == FormatProm {
		return parseProm(body, ps)
	}
	return parsePayloads(body, ps)
}

// nextPayload extends ps by one slot, reusing that slot's Values storage
// when ps has the capacity, and empties the slot's vector.
func nextPayload(ps []Payload) []Payload {
	if len(ps) < cap(ps) {
		ps = ps[:len(ps)+1]
	} else {
		ps = append(ps, Payload{})
	}
	p := &ps[len(ps)-1]
	p.Values = p.Values[:0]
	return ps
}

// accept is the Accept header the scraper sends to negotiate the format.
func (f Format) accept() string {
	if f == FormatProm {
		return "text/plain;version=0.0.4"
	}
	return "application/json"
}

// Prometheus series names of the exposition. Every KPI cell is one
// dbcatcher_kpi sample keyed by its database and KPI index, and
// dbcatcher_tick carries each database's collection tick so staleness
// detection works identically to the JSON path.
const (
	promTickSeries = "dbcatcher_tick"
	promKPISeries  = "dbcatcher_kpi"
)

// appendProm renders ps as Prometheus text exposition: each family's
// samples together under its one TYPE line, as the exposition format
// requires. First every database's dbcatcher_tick sample, then each
// database's dbcatcher_kpi samples, one database after another. Floats use
// strconv's shortest round-trip form and NaN cells are emitted as the NaN
// literal — the exposition-format spelling of the JSON payload's null — so
// the prom path stays bit-identical to the JSON path.
func appendProm(b []byte, ps []Payload) []byte {
	b = append(b, "# TYPE "+promTickSeries+" gauge\n"...)
	for i := range ps {
		b = append(b, promTickSeries+`{db="`...)
		b = strconv.AppendInt(b, int64(ps[i].DB), 10)
		b = append(b, `"} `...)
		b = strconv.AppendInt(b, int64(ps[i].Tick), 10)
		b = append(b, '\n')
	}
	b = append(b, "# TYPE "+promKPISeries+" gauge\n"...)
	for i := range ps {
		for k, v := range ps[i].Values {
			b = append(b, promKPISeries+`{db="`...)
			b = strconv.AppendInt(b, int64(ps[i].DB), 10)
			b = append(b, `",kpi="`...)
			b = strconv.AppendInt(b, int64(k), 10)
			b = append(b, `"} `...)
			if math.IsNaN(v) {
				b = append(b, `NaN`...)
			} else {
				b = strconv.AppendFloat(b, v, 'g', -1, 64)
			}
			b = append(b, '\n')
		}
	}
	return b
}

// parseProm decodes a Prometheus text-exposition body into ps[:0]. It
// accepts exactly the shape appendProm emits: one dbcatcher_tick sample per
// database, in strictly increasing db order, then each of those databases'
// dbcatcher_kpi samples in the same order, each database's in strictly
// increasing kpi order starting at 0, every database carrying at least one.
// So a duplicate, missing or out-of-order series, a tick sample after a KPI
// sample, or a KPI sample for a database no tick sample announced is
// rejected, not silently absorbed. Values are finite or NaN; nothing else
// but comments and blank lines is allowed. Truncation mid-line, mid-label,
// or mid-number errors rather than yielding a half-filled vector.
func parseProm(body []byte, ps []Payload) ([]Payload, error) {
	d := promParser{buf: body, cur: -1}
	return d.parse(ps[:0])
}

// promParser walks one body. The payloads are threaded through its methods
// by value, never stored in it, so a caller's slot array stays on its
// stack.
type promParser struct {
	buf []byte
	pos int
	// cur indexes the database whose dbcatcher_kpi samples are being read;
	// -1 until the first one.
	cur int
}

func (d *promParser) parse(ps []Payload) ([]Payload, error) {
	var err error
	for d.pos < len(d.buf) {
		c := d.buf[d.pos]
		switch {
		case c == '\n':
			d.pos++
		case c == '#':
			d.skipLine()
		default:
			if ps, err = d.sample(ps); err != nil {
				return ps, err
			}
		}
	}
	if len(ps) == 0 {
		return ps, fmt.Errorf("scrape: exposition missing %s series", promTickSeries)
	}
	if d.cur != len(ps)-1 {
		return ps, fmt.Errorf("scrape: exposition carries no %s series for db %d", promKPISeries, ps[d.cur+1].DB)
	}
	return ps, nil
}

// skipLine consumes through the next newline (or EOF: a comment needs no
// terminator to be ignorable).
func (d *promParser) skipLine() {
	for d.pos < len(d.buf) && d.buf[d.pos] != '\n' {
		d.pos++
	}
	if d.pos < len(d.buf) {
		d.pos++
	}
}

// sample parses one metric line. The exposition grammar accepted is exactly
// what appendProm emits: name{labels} value\n with single spaces and no
// timestamps. A dbcatcher_tick sample appends its database's slot to ps.
func (d *promParser) sample(ps []Payload) ([]Payload, error) {
	start := d.pos
	for d.pos < len(d.buf) && d.buf[d.pos] != '{' && d.buf[d.pos] != '\n' {
		d.pos++
	}
	if d.pos >= len(d.buf) || d.buf[d.pos] != '{' {
		return ps, fmt.Errorf("scrape: malformed exposition at byte %d (metric without labels)", start)
	}
	name := d.buf[start:d.pos]
	d.pos++ // consume '{'
	switch string(name) {
	case promTickSeries:
		if d.cur >= 0 {
			return ps, fmt.Errorf("scrape: %s sample after %s samples", promTickSeries, promKPISeries)
		}
		db, err := d.label("db")
		if err != nil {
			return ps, err
		}
		if err := d.closeLabels(); err != nil {
			return ps, err
		}
		if n := len(ps); n > 0 && db <= ps[n-1].DB {
			return ps, fmt.Errorf("scrape: duplicate or out-of-order %s series (db %d after db %d)",
				promTickSeries, db, ps[n-1].DB)
		}
		tick, err := d.intValue()
		if err != nil {
			return ps, err
		}
		ps = nextPayload(ps)
		p := &ps[len(ps)-1]
		p.Tick, p.DB = tick, db
		return ps, nil
	case promKPISeries:
		db, err := d.label("db")
		if err != nil {
			return ps, err
		}
		if d.pos >= len(d.buf) || d.buf[d.pos] != ',' {
			return ps, fmt.Errorf("scrape: malformed exposition at byte %d (want kpi label)", d.pos)
		}
		d.pos++
		id, err := d.label("kpi")
		if err != nil {
			return ps, err
		}
		if err := d.closeLabels(); err != nil {
			return ps, err
		}
		if d.cur < 0 || db != ps[d.cur].DB {
			// The next announced database's samples start here.
			if d.cur+1 >= len(ps) || db != ps[d.cur+1].DB {
				return ps, fmt.Errorf("scrape: exposition mixes databases: %s sample for db %d out of place", promKPISeries, db)
			}
			d.cur++
		}
		p := &ps[d.cur]
		if id != len(p.Values) {
			return ps, fmt.Errorf("scrape: duplicate, missing, or out-of-order %s series (kpi %d, want %d)",
				promKPISeries, id, len(p.Values))
		}
		v, err := d.floatValue()
		if err != nil {
			return ps, err
		}
		p.Values = append(p.Values, v)
		return ps, nil
	}
	return ps, fmt.Errorf("scrape: unknown series %q in exposition", name)
}

// label consumes name="<digits>" and returns the integer label value.
func (d *promParser) label(name string) (int, error) {
	if d.pos+len(name)+2 > len(d.buf) ||
		string(d.buf[d.pos:d.pos+len(name)]) != name ||
		d.buf[d.pos+len(name)] != '=' || d.buf[d.pos+len(name)+1] != '"' {
		return 0, fmt.Errorf("scrape: malformed exposition at byte %d (want %s label)", d.pos, name)
	}
	d.pos += len(name) + 2
	return d.digits()
}

// closeLabels consumes `"} ` — the end of a label set and the single space
// before the value.
func (d *promParser) closeLabels() error {
	if d.pos+2 > len(d.buf) || d.buf[d.pos] != '}' || d.buf[d.pos+1] != ' ' {
		return fmt.Errorf("scrape: malformed exposition at byte %d (want \"} \")", d.pos)
	}
	d.pos += 2
	return nil
}

// digits consumes an unsigned decimal integer followed by a closing quote.
func (d *promParser) digits() (int, error) {
	start := d.pos
	n := 0
	for d.pos < len(d.buf) {
		c := d.buf[d.pos]
		if c < '0' || c > '9' {
			break
		}
		if n > (1<<53)/10 {
			return 0, fmt.Errorf("scrape: label value overflow at byte %d", start)
		}
		n = n*10 + int(c-'0')
		d.pos++
	}
	if d.pos == start {
		return 0, fmt.Errorf("scrape: malformed exposition at byte %d (want digits)", d.pos)
	}
	if d.pos >= len(d.buf) || d.buf[d.pos] != '"' {
		return 0, fmt.Errorf("scrape: malformed exposition at byte %d (unterminated label)", d.pos)
	}
	d.pos++
	return n, nil
}

// intValue consumes an unsigned integer value token and its newline.
func (d *promParser) intValue() (int, error) {
	start := d.pos
	n := 0
	for d.pos < len(d.buf) && d.buf[d.pos] != '\n' {
		c := d.buf[d.pos]
		if c < '0' || c > '9' || n > (1<<53)/10 {
			return 0, fmt.Errorf("scrape: bad tick value at byte %d", start)
		}
		n = n*10 + int(c-'0')
		d.pos++
	}
	if d.pos == start {
		return 0, fmt.Errorf("scrape: truncated exposition (missing tick value)")
	}
	if d.pos >= len(d.buf) {
		return 0, fmt.Errorf("scrape: truncated exposition (sample without newline)")
	}
	d.pos++ // consume '\n'
	return n, nil
}

// floatValue consumes a float value token and its newline. NaN is a legal
// gap marker (the exposition spelling of the JSON payload's null); ±Inf and
// anything strconv rejects are errors.
func (d *promParser) floatValue() (float64, error) {
	start := d.pos
	for d.pos < len(d.buf) && d.buf[d.pos] != '\n' {
		d.pos++
	}
	if d.pos == start {
		return 0, fmt.Errorf("scrape: truncated exposition (missing value)")
	}
	if d.pos >= len(d.buf) {
		return 0, fmt.Errorf("scrape: truncated exposition (sample without newline)")
	}
	tok := d.buf[start:d.pos]
	d.pos++ // consume '\n'
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, fmt.Errorf("scrape: bad value %q in exposition", tok)
	}
	if math.IsInf(v, 0) {
		return 0, fmt.Errorf("scrape: non-finite value %q in exposition", tok)
	}
	return v, nil
}
