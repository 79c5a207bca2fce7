// Package store is DBCatcher's embedded durable state subsystem: an
// append-only, CRC32-checked, segmented write-ahead log for high-rate
// records (unit-keyed verdicts, DBA feedback, threshold swaps, relearn
// events, incident rounds, fencing epochs) plus atomic point-in-time
// snapshots for the online judge's low-rate state (learned thresholds,
// flexible-window position, the in-flight round's ring tails). RecVerdict
// and RecCounters are legacy and read-only: older builds wrote them, this
// one still decodes them (a RecVerdict as unit 0's verdict) and writes
// neither.
//
// The subsystem is dependency-free (standard library only) and built for
// crash recovery over refusal: a torn final record, a bad checksum, an
// empty segment, or a corrupt snapshot all recover to the longest valid
// prefix — Open never refuses to start over damage a crash can cause.
package store

import (
	"encoding/binary"
	"fmt"
	"math"
)

// RecordType tags a WAL record's payload layout.
type RecordType uint8

const (
	// RecVerdict is legacy and read-only: one unit's verdict as builds
	// before RecUnitVerdict served every unit count wrote it. Recovery reads
	// it as unit 0's verdict.
	RecVerdict RecordType = 1
	// RecFeedback is one DBA-marked judgment record.
	RecFeedback RecordType = 2
	// RecCounters is legacy and read-only: a cumulative health-counter
	// sample older builds wrote beside each verdict. Recovery skips it; the
	// snapshot's judge state carries the counters.
	RecCounters RecordType = 3
	// RecThresholds is an applied judgment-threshold swap.
	RecThresholds RecordType = 4
	// RecRelearn is a relearning-supervisor lifecycle transition.
	RecRelearn RecordType = 5
	// RecUnitVerdict is one unit's emitted verdict: the RecVerdict payload
	// prefixed with the unit index, so a single multiplexed WAL persists
	// every unit's verdict stream in one data directory, for every unit
	// count.
	RecUnitVerdict RecordType = 6
	// RecIncident is one fleet round's batch of incident-lifecycle
	// transitions (open/update/close) from the incident aggregator. Batching
	// per round makes the record the atomicity unit replay needs: a crash
	// can lose whole rounds off the tail, never tear one.
	RecIncident RecordType = 7
	// RecEpoch is a primary-role fencing-epoch adoption: a node appends one
	// when it takes (or retakes) the primary role of a replicated pair. The
	// epoch is strictly monotonic across the pair's history, so a record
	// stream always proves which writer was most recently legitimate.
	RecEpoch RecordType = 8
)

// Decoder sanity bounds: a record claiming more than these is corrupt, not
// big. They keep a fuzzed or damaged length prefix from driving huge
// allocations during recovery.
const (
	maxStates      = 1 << 12 // databases per verdict
	maxAlphas      = 1 << 12 // KPIs per threshold set
	maxUnits       = 1 << 20 // fleet units per multiplexed WAL
	maxCount       = 1 << 56 // any persisted counter/tick value
	maxTransitions = 1 << 16 // incident transitions per round record
)

// VerdictRecord mirrors monitor.Verdict with storage-plain fields.
type VerdictRecord struct {
	Tick       int
	Start      int
	Size       int
	AbnormalDB int // -1 when no database is abnormal
	Expansions int
	GapCells   int
	Abnormal   bool
	Health     uint8
	States     []uint8
}

// FeedbackRecord mirrors feedback.Record.
type FeedbackRecord struct {
	Start     int
	Size      int
	Predicted bool
	Actual    bool
}

// CountersRecord is a legacy RecCounters payload: a cumulative sample of
// the judge's health counters.
type CountersRecord struct {
	GapCells         int
	MissedTicks      int
	Deactivations    int
	Reactivations    int
	DegradedVerdicts int
	SkippedRounds    int
}

// ThresholdsRecord is an applied threshold swap and the tick it took
// effect at.
type ThresholdsRecord struct {
	Tick         int
	Alpha        []float64
	Theta        float64
	MaxTolerance int
}

// RelearnRecord is one relearning-supervisor lifecycle transition
// (started/failed/rejected/shadowing/promoted/rolled back). The persist
// layer stores non-finite scores as -1 (every real score is non-negative);
// the free-text failure reason is not persisted.
type RelearnRecord struct {
	Tick           int
	Attempt        int
	TrainRecords   int
	HoldoutRecords int
	Event          uint8
	Fitness        float64
	Baseline       float64
	FlipRate       float64
}

// UnitVerdictRecord is one fleet unit's verdict in a multiplexed WAL.
type UnitVerdictRecord struct {
	Unit    int
	Verdict VerdictRecord
}

// IncidentTransition is one incident-lifecycle mutation with
// storage-plain fields; Event is incident.TransOpen/Update/Close. KPIs is
// the deviating-KPI bitmask, stored fixed-width (the full 64 bits are
// meaningful, so uvarint's plausibility ceiling would reject high bits).
type IncidentTransition struct {
	Event     uint8
	ID        uint64
	Cluster   uint64
	Unit      int
	DB        int
	KPIs      uint64
	FirstTick int
	LastTick  int
	Count     int
}

// IncidentRecord batches every incident transition one fleet round
// produced, keyed by the round tick — the aggregator's rehydration
// horizon.
type IncidentRecord struct {
	RoundTick   int
	Transitions []IncidentTransition
}

// EpochRecord is one fencing-epoch adoption. Epoch starts at 1 for the
// first primary and increases by at least 1 per promotion; Tick is the
// newest durable collection tick at adoption time (0 on a fresh store).
type EpochRecord struct {
	Epoch uint64
	Tick  int
}

// Record is the tagged union carried by one WAL frame; Type selects which
// member is meaningful.
type Record struct {
	Type        RecordType
	Verdict     VerdictRecord
	Feedback    FeedbackRecord
	Counters    CountersRecord
	Thresholds  ThresholdsRecord
	Relearn     RelearnRecord
	UnitVerdict UnitVerdictRecord
	Incident    IncidentRecord
	Epoch       EpochRecord
}

// SeqRecord is a replayed record with its log sequence number (1-based,
// monotonically increasing across segments).
type SeqRecord struct {
	Seq uint64
	Record
}

// validate rejects records the strict decoder would refuse: appending one
// would poison recovery (replay treats an undecodable payload as corruption
// and truncates the log there), so the append path fails fast instead.
func (r *Record) validate() error {
	checkCount := func(name string, v int) error {
		if v < 0 || uint64(v) >= maxCount {
			return fmt.Errorf("store: %s %d out of range", name, v)
		}
		return nil
	}
	checkFloat := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("store: non-finite %s", name)
		}
		return nil
	}
	validateVerdict := func(v *VerdictRecord) error {
		if len(v.States) > maxStates {
			return fmt.Errorf("store: %d states exceeds the %d limit", len(v.States), maxStates)
		}
		if v.AbnormalDB < -1 || v.AbnormalDB >= maxStates {
			return fmt.Errorf("store: abnormal db %d out of range", v.AbnormalDB)
		}
		for _, f := range []struct {
			name string
			v    int
		}{{"tick", v.Tick}, {"start", v.Start}, {"size", v.Size}, {"expansions", v.Expansions}, {"gap cells", v.GapCells}} {
			if err := checkCount(f.name, f.v); err != nil {
				return err
			}
		}
		return nil
	}
	switch r.Type {
	case RecVerdict:
		return validateVerdict(&r.Verdict)
	case RecUnitVerdict:
		u := &r.UnitVerdict
		if u.Unit < 0 || u.Unit >= maxUnits {
			return fmt.Errorf("store: unit %d out of range", u.Unit)
		}
		return validateVerdict(&u.Verdict)
	case RecFeedback:
		if err := checkCount("start", r.Feedback.Start); err != nil {
			return err
		}
		return checkCount("size", r.Feedback.Size)
	case RecCounters:
		c := &r.Counters
		for _, f := range []struct {
			name string
			v    int
		}{{"gap cells", c.GapCells}, {"missed ticks", c.MissedTicks}, {"deactivations", c.Deactivations},
			{"reactivations", c.Reactivations}, {"degraded verdicts", c.DegradedVerdicts}, {"skipped rounds", c.SkippedRounds}} {
			if err := checkCount(f.name, f.v); err != nil {
				return err
			}
		}
	case RecThresholds:
		t := &r.Thresholds
		if len(t.Alpha) > maxAlphas {
			return fmt.Errorf("store: %d alphas exceeds the %d limit", len(t.Alpha), maxAlphas)
		}
		if err := checkCount("tick", t.Tick); err != nil {
			return err
		}
		if err := checkCount("max tolerance", t.MaxTolerance); err != nil {
			return err
		}
		for _, a := range t.Alpha {
			if err := checkFloat("alpha", a); err != nil {
				return err
			}
		}
		return checkFloat("theta", t.Theta)
	case RecIncident:
		in := &r.Incident
		if len(in.Transitions) > maxTransitions {
			return fmt.Errorf("store: %d transitions exceeds the %d limit", len(in.Transitions), maxTransitions)
		}
		if err := checkCount("round tick", in.RoundTick); err != nil {
			return err
		}
		for i := range in.Transitions {
			tr := &in.Transitions[i]
			if tr.Event < 1 || tr.Event > 3 {
				return fmt.Errorf("store: bad transition event %d", tr.Event)
			}
			if tr.ID == 0 || tr.ID >= maxCount {
				return fmt.Errorf("store: incident id %d out of range", tr.ID)
			}
			if tr.Cluster == 0 || tr.Cluster >= maxCount {
				return fmt.Errorf("store: cluster id %d out of range", tr.Cluster)
			}
			if tr.Unit < 0 || tr.Unit >= maxUnits {
				return fmt.Errorf("store: unit %d out of range", tr.Unit)
			}
			if tr.DB < 0 || tr.DB >= maxStates {
				return fmt.Errorf("store: db %d out of range", tr.DB)
			}
			if err := checkCount("first tick", tr.FirstTick); err != nil {
				return err
			}
			if err := checkCount("last tick", tr.LastTick); err != nil {
				return err
			}
			if tr.LastTick <= tr.FirstTick {
				return fmt.Errorf("store: incident window [%d,%d) is empty", tr.FirstTick, tr.LastTick)
			}
			if tr.Count < 1 || uint64(tr.Count) >= maxCount {
				return fmt.Errorf("store: incident count %d out of range", tr.Count)
			}
		}
	case RecRelearn:
		l := &r.Relearn
		for _, f := range []struct {
			name string
			v    int
		}{{"tick", l.Tick}, {"attempt", l.Attempt}, {"train records", l.TrainRecords}, {"holdout records", l.HoldoutRecords}} {
			if err := checkCount(f.name, f.v); err != nil {
				return err
			}
		}
		for _, f := range []struct {
			name string
			v    float64
		}{{"fitness", l.Fitness}, {"baseline", l.Baseline}, {"flip rate", l.FlipRate}} {
			if err := checkFloat(f.name, f.v); err != nil {
				return err
			}
		}
	case RecEpoch:
		e := &r.Epoch
		if e.Epoch == 0 || e.Epoch >= maxCount {
			return fmt.Errorf("store: epoch %d out of range", e.Epoch)
		}
		return checkCount("epoch tick", e.Tick)
	default:
		return fmt.Errorf("store: unknown record type %d", r.Type)
	}
	return nil
}

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendVerdictFields serializes the VerdictRecord field block shared by
// RecVerdict and RecUnitVerdict payloads.
func appendVerdictFields(b []byte, v *VerdictRecord) []byte {
	b = appendUvarint(b, uint64(v.Tick))
	b = appendUvarint(b, uint64(v.Start))
	b = appendUvarint(b, uint64(v.Size))
	b = appendVarint(b, int64(v.AbnormalDB))
	b = appendUvarint(b, uint64(v.Expansions))
	b = appendUvarint(b, uint64(v.GapCells))
	b = appendBool(b, v.Abnormal)
	b = append(b, v.Health)
	b = appendUvarint(b, uint64(len(v.States)))
	return append(b, v.States...)
}

// appendPayload serializes a record (type byte + fields) onto b.
func appendPayload(b []byte, r *Record) []byte {
	b = append(b, byte(r.Type))
	switch r.Type {
	case RecVerdict:
		b = appendVerdictFields(b, &r.Verdict)
	case RecUnitVerdict:
		b = appendUvarint(b, uint64(r.UnitVerdict.Unit))
		b = appendVerdictFields(b, &r.UnitVerdict.Verdict)
	case RecFeedback:
		f := &r.Feedback
		b = appendUvarint(b, uint64(f.Start))
		b = appendUvarint(b, uint64(f.Size))
		b = appendBool(b, f.Predicted)
		b = appendBool(b, f.Actual)
	case RecCounters:
		c := &r.Counters
		b = appendUvarint(b, uint64(c.GapCells))
		b = appendUvarint(b, uint64(c.MissedTicks))
		b = appendUvarint(b, uint64(c.Deactivations))
		b = appendUvarint(b, uint64(c.Reactivations))
		b = appendUvarint(b, uint64(c.DegradedVerdicts))
		b = appendUvarint(b, uint64(c.SkippedRounds))
	case RecThresholds:
		t := &r.Thresholds
		b = appendUvarint(b, uint64(t.Tick))
		b = appendUvarint(b, uint64(len(t.Alpha)))
		for _, a := range t.Alpha {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a))
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.Theta))
		b = appendUvarint(b, uint64(t.MaxTolerance))
	case RecIncident:
		in := &r.Incident
		b = appendUvarint(b, uint64(in.RoundTick))
		b = appendUvarint(b, uint64(len(in.Transitions)))
		for i := range in.Transitions {
			tr := &in.Transitions[i]
			b = append(b, tr.Event)
			b = appendUvarint(b, tr.ID)
			b = appendUvarint(b, tr.Cluster)
			b = appendUvarint(b, uint64(tr.Unit))
			b = appendUvarint(b, uint64(tr.DB))
			b = binary.LittleEndian.AppendUint64(b, tr.KPIs)
			b = appendUvarint(b, uint64(tr.FirstTick))
			b = appendUvarint(b, uint64(tr.LastTick))
			b = appendUvarint(b, uint64(tr.Count))
		}
	case RecRelearn:
		l := &r.Relearn
		b = appendUvarint(b, uint64(l.Tick))
		b = appendUvarint(b, uint64(l.Attempt))
		b = appendUvarint(b, uint64(l.TrainRecords))
		b = appendUvarint(b, uint64(l.HoldoutRecords))
		b = append(b, l.Event)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(l.Fitness))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(l.Baseline))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(l.FlipRate))
	case RecEpoch:
		b = appendUvarint(b, r.Epoch.Epoch)
		b = appendUvarint(b, uint64(r.Epoch.Tick))
	default:
		panic(fmt.Sprintf("store: unknown record type %d", r.Type))
	}
	return b
}

// payloadReader walks a payload with sticky error state.
type payloadReader struct {
	b   []byte
	off int
	err error
}

func (r *payloadReader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *payloadReader) byteVal() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("store: payload truncated at offset %d", r.off)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *payloadReader) boolVal() bool {
	v := r.byteVal()
	if r.err == nil && v > 1 {
		r.fail("store: bad bool byte %d", v)
	}
	return v == 1
}

func (r *payloadReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	// Reject zero-padded (non-minimal) encodings too: every valid payload
	// must re-encode to identical bytes, or recovery stops being canonical.
	if n <= 0 || (n > 1 && r.b[r.off+n-1] == 0) {
		r.fail("store: bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	if v >= maxCount {
		r.fail("store: implausible value %d", v)
		return 0
	}
	return v
}

func (r *payloadReader) count() int { return int(r.uvarint()) }

func (r *payloadReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 || (n > 1 && r.b[r.off+n-1] == 0) {
		r.fail("store: bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// fixed64 reads a fixed-width little-endian uint64 (bitmask fields where
// every bit pattern is legal).
func (r *payloadReader) fixed64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail("store: payload truncated at offset %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *payloadReader) float() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail("store: payload truncated at offset %d", r.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("store: non-finite float")
		return 0
	}
	return v
}

// decodePayload parses one record payload. It is strict: unknown types,
// implausible lengths, non-canonical booleans, non-finite floats, and
// trailing bytes are all errors, so a decoded record always re-encodes to
// the identical payload.
func decodePayload(b []byte) (Record, error) {
	r := payloadReader{b: b}
	var rec Record
	rec.Type = RecordType(r.byteVal())
	decodeVerdictFields := func(v *VerdictRecord) {
		v.Tick = r.count()
		v.Start = r.count()
		v.Size = r.count()
		db := r.varint()
		if r.err == nil && (db < -1 || db >= maxStates) {
			r.fail("store: bad abnormal db %d", db)
		}
		v.AbnormalDB = int(db)
		v.Expansions = r.count()
		v.GapCells = r.count()
		v.Abnormal = r.boolVal()
		v.Health = r.byteVal()
		n := r.count()
		if r.err == nil && (n > maxStates || n > len(r.b)-r.off) {
			r.fail("store: implausible state count %d", n)
		}
		if r.err == nil && n > 0 {
			v.States = append([]uint8(nil), r.b[r.off:r.off+n]...)
			r.off += n
		}
	}
	switch rec.Type {
	case RecVerdict:
		decodeVerdictFields(&rec.Verdict)
	case RecUnitVerdict:
		u := &rec.UnitVerdict
		u.Unit = r.count()
		if r.err == nil && u.Unit >= maxUnits {
			r.fail("store: unit %d out of range", u.Unit)
		}
		decodeVerdictFields(&u.Verdict)
	case RecFeedback:
		f := &rec.Feedback
		f.Start = r.count()
		f.Size = r.count()
		f.Predicted = r.boolVal()
		f.Actual = r.boolVal()
	case RecCounters:
		c := &rec.Counters
		c.GapCells = r.count()
		c.MissedTicks = r.count()
		c.Deactivations = r.count()
		c.Reactivations = r.count()
		c.DegradedVerdicts = r.count()
		c.SkippedRounds = r.count()
	case RecThresholds:
		t := &rec.Thresholds
		t.Tick = r.count()
		n := r.count()
		if r.err == nil && (n > maxAlphas || n*8 > len(r.b)-r.off) {
			r.fail("store: implausible alpha count %d", n)
		}
		if r.err == nil && n > 0 {
			t.Alpha = make([]float64, n)
			for i := range t.Alpha {
				t.Alpha[i] = r.float()
			}
		}
		t.Theta = r.float()
		t.MaxTolerance = r.count()
	case RecIncident:
		in := &rec.Incident
		in.RoundTick = r.count()
		n := r.count()
		// 16 bytes is the smallest possible encoded transition.
		if r.err == nil && (n > maxTransitions || n*16 > len(r.b)-r.off) {
			r.fail("store: implausible transition count %d", n)
		}
		if r.err == nil && n > 0 {
			in.Transitions = make([]IncidentTransition, n)
			for i := range in.Transitions {
				tr := &in.Transitions[i]
				tr.Event = r.byteVal()
				if r.err == nil && (tr.Event < 1 || tr.Event > 3) {
					r.fail("store: bad transition event %d", tr.Event)
				}
				tr.ID = r.uvarint()
				tr.Cluster = r.uvarint()
				if r.err == nil && (tr.ID == 0 || tr.Cluster == 0) {
					r.fail("store: zero incident/cluster id")
				}
				tr.Unit = r.count()
				if r.err == nil && tr.Unit >= maxUnits {
					r.fail("store: unit %d out of range", tr.Unit)
				}
				tr.DB = r.count()
				if r.err == nil && tr.DB >= maxStates {
					r.fail("store: db %d out of range", tr.DB)
				}
				tr.KPIs = r.fixed64()
				tr.FirstTick = r.count()
				tr.LastTick = r.count()
				if r.err == nil && tr.LastTick <= tr.FirstTick {
					r.fail("store: incident window [%d,%d) is empty", tr.FirstTick, tr.LastTick)
				}
				tr.Count = r.count()
				if r.err == nil && tr.Count < 1 {
					r.fail("store: incident count %d out of range", tr.Count)
				}
			}
		}
	case RecRelearn:
		l := &rec.Relearn
		l.Tick = r.count()
		l.Attempt = r.count()
		l.TrainRecords = r.count()
		l.HoldoutRecords = r.count()
		l.Event = r.byteVal()
		l.Fitness = r.float()
		l.Baseline = r.float()
		l.FlipRate = r.float()
	case RecEpoch:
		e := &rec.Epoch
		e.Epoch = r.uvarint()
		if r.err == nil && e.Epoch == 0 {
			r.fail("store: zero epoch")
		}
		e.Tick = r.count()
	default:
		return rec, fmt.Errorf("store: unknown record type %d", rec.Type)
	}
	if r.err != nil {
		return rec, r.err
	}
	if r.off != len(b) {
		return rec, fmt.Errorf("store: %d trailing payload bytes", len(b)-r.off)
	}
	return rec, nil
}
