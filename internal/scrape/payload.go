// Package scrape turns the in-process collection path into a real network
// monitoring pipeline: a unit's databases are served over HTTP with their
// current-tick KPI vectors (the exporter), the whole unit in one body or
// each database alone, and a per-round, deadline-driven fan-out (the
// scraper) collects whatever arrived in time, assembles a possibly-partial
// sample, and hands it to the monitor's degraded-ingestion path. Slow,
// dead, or garbage-emitting targets degrade the sample — never the
// detection loop: per-endpoint retries back off exponentially, a circuit
// breaker stops hammering dead endpoints, and anything missing by the tick
// deadline becomes NaN gaps that the gap-tolerant judgment already knows
// how to absorb.
package scrape

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
)

// Payload is one database's part of a scrape body: the exporter's current
// collection tick and the database's KPI vector in KPI-id order. Cells the
// collector lost are null on the wire and NaN in memory.
type Payload struct {
	Tick   int       `json:"tick"`
	DB     int       `json:"db"`
	Values []float64 `json:"values"`
}

// appendPayloads renders ps as JSON: one database's payload as the object
// itself, several as an array of those objects, then a newline. Values
// round-trip exactly: floats are encoded with strconv's shortest round-trip
// form and NaN becomes null (encoding/json refuses NaN, and a lossy float
// encoding would break the scrape path's bit-identicality with in-process
// collection).
func appendPayloads(b []byte, ps []Payload) []byte {
	if len(ps) == 1 {
		return append(appendObject(b, &ps[0]), '\n')
	}
	b = append(b, '[')
	for i := range ps {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendObject(b, &ps[i])
	}
	return append(b, "]\n"...)
}

// appendObject renders one database's payload object.
func appendObject(b []byte, p *Payload) []byte {
	b = append(b, `{"tick":`...)
	b = strconv.AppendInt(b, int64(p.Tick), 10)
	b = append(b, `,"db":`...)
	b = strconv.AppendInt(b, int64(p.DB), 10)
	b = append(b, `,"values":[`...)
	for i, v := range p.Values {
		if i > 0 {
			b = append(b, ',')
		}
		if math.IsNaN(v) {
			b = append(b, `null`...)
		} else {
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
	}
	return append(b, `]}`...)
}

// parsePayloads decodes a JSON scrape body into ps[:0]. It is a strict
// hand-rolled parser for exactly the shapes appendPayloads emits (with
// arbitrary JSON whitespace): one payload object, or a non-empty array of
// them in strictly increasing db order. Anything else — truncated bodies,
// garbage, wrong field types — errors rather than producing a half-filled
// vector.
func parsePayloads(body []byte, ps []Payload) ([]Payload, error) {
	d := &payloadParser{buf: body}
	ps, err := d.parse(ps[:0])
	if err != nil {
		return ps, err
	}
	d.skipSpace()
	if d.pos != len(d.buf) {
		return ps, fmt.Errorf("scrape: trailing data after payload")
	}
	return ps, nil
}

type payloadParser struct {
	buf []byte
	pos int
}

func (d *payloadParser) skipSpace() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

func (d *payloadParser) expect(c byte) error {
	d.skipSpace()
	if d.pos >= len(d.buf) || d.buf[d.pos] != c {
		return fmt.Errorf("scrape: malformed payload at byte %d (want %q)", d.pos, c)
	}
	d.pos++
	return nil
}

// literal consumes the exact bytes s (no whitespace inside).
func (d *payloadParser) literal(s string) error {
	if d.pos+len(s) > len(d.buf) || string(d.buf[d.pos:d.pos+len(s)]) != s {
		return fmt.Errorf("scrape: malformed payload at byte %d (want %s)", d.pos, s)
	}
	d.pos += len(s)
	return nil
}

// number consumes a JSON number and returns its float value.
func (d *payloadParser) number() (float64, error) {
	d.skipSpace()
	start := d.pos
	for d.pos < len(d.buf) {
		switch c := d.buf[d.pos]; {
		case c >= '0' && c <= '9', c == '-', c == '+', c == '.', c == 'e', c == 'E':
			d.pos++
		default:
			goto done
		}
	}
done:
	if d.pos == start {
		return 0, fmt.Errorf("scrape: malformed payload at byte %d (want number)", d.pos)
	}
	v, err := strconv.ParseFloat(string(d.buf[start:d.pos]), 64)
	if err != nil {
		return 0, fmt.Errorf("scrape: bad number %q in payload", d.buf[start:d.pos])
	}
	return v, nil
}

func (d *payloadParser) key(name string) error {
	if err := d.expect('"'); err != nil {
		return err
	}
	if err := d.literal(name); err != nil {
		return err
	}
	if err := d.literal(`"`); err != nil {
		return err
	}
	return d.expect(':')
}

// parse decodes the body's one object, or its array of objects, onto ps.
func (d *payloadParser) parse(ps []Payload) ([]Payload, error) {
	d.skipSpace()
	if d.pos >= len(d.buf) || d.buf[d.pos] != '[' {
		ps = nextPayload(ps)
		return ps, d.object(&ps[0])
	}
	d.pos++
	for {
		ps = nextPayload(ps)
		p := &ps[len(ps)-1]
		if err := d.object(p); err != nil {
			return ps, err
		}
		if n := len(ps); n > 1 && p.DB <= ps[n-2].DB {
			return ps, fmt.Errorf("scrape: duplicate or out-of-order payload (db %d after db %d)", p.DB, ps[n-2].DB)
		}
		d.skipSpace()
		if d.pos >= len(d.buf) {
			return ps, fmt.Errorf("scrape: truncated payload")
		}
		switch d.buf[d.pos] {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return ps, nil
		default:
			return ps, fmt.Errorf("scrape: malformed payload at byte %d", d.pos)
		}
	}
}

// object decodes one payload object into p, reusing p.Values' storage.
func (d *payloadParser) object(p *Payload) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	if err := d.key("tick"); err != nil {
		return err
	}
	tick, err := d.number()
	if err != nil {
		return err
	}
	p.Tick = int(tick)
	if err := d.expect(','); err != nil {
		return err
	}
	if err := d.key("db"); err != nil {
		return err
	}
	db, err := d.number()
	if err != nil {
		return err
	}
	p.DB = int(db)
	if err := d.expect(','); err != nil {
		return err
	}
	if err := d.key("values"); err != nil {
		return err
	}
	if err := d.expect('['); err != nil {
		return err
	}
	p.Values = p.Values[:0]
	d.skipSpace()
	if d.pos < len(d.buf) && d.buf[d.pos] == ']' {
		d.pos++
		return d.expect('}')
	}
	for {
		d.skipSpace()
		if bytes.HasPrefix(d.buf[d.pos:], []byte("null")) {
			d.pos += 4
			p.Values = append(p.Values, math.NaN())
		} else {
			v, err := d.number()
			if err != nil {
				return err
			}
			p.Values = append(p.Values, v)
		}
		d.skipSpace()
		if d.pos >= len(d.buf) {
			return fmt.Errorf("scrape: truncated payload")
		}
		switch d.buf[d.pos] {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return d.expect('}')
		default:
			return fmt.Errorf("scrape: malformed payload at byte %d", d.pos)
		}
	}
}
