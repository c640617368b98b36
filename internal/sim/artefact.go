package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"repro/internal/migration"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// The persistent run cache stores one completed RunResult per file as a
// versioned, self-describing, checksummed artefact. The format is a
// hand-rolled little-endian binary encoding rather than JSON or gob for
// two reasons: floats are stored as their exact IEEE-754 bit patterns, so
// a decoded result is bit-identical to the run that produced it (the
// property the whole cache stack is built on), and the decoder's failure
// surface is small enough to exhaust — every malformed input must come
// back as an *artefactError naming what broke, never a panic and never a
// silently wrong result (FuzzCacheArtefactDecode pins this).
//
// Layout (all integers little-endian):
//
//	offset 0   magic "wavm3run" (8 bytes)
//	offset 8   encoding version (uint32, artefactVersion)
//	offset 12  payload length (uint64)
//	offset 20  payload (see encodeArtefact)
//	tail       SHA-256 of every preceding byte (32 bytes)
//
// The payload opens with the artefact's own cache identity — the SHA-256
// key hash and the canonical key encoding it was computed from — so a
// file renamed onto the wrong key, or a hash collision, is detected by
// content, not trusted by name.

// artefactVersion is the on-disk encoding version. Bump it whenever the
// payload layout or the canonical key encoding changes, and whenever the
// kernel's physics changes what a key's run produces: the key names the
// scenario, not the code that ran it. Old artefacts then carry an old
// name and version, so they are misses, never wrong results.
//
// Version 2: the page dirtiers sample dirty-page counts instead of a
// bitmap (internal/mem), a new realisation for every run that dirties
// memory; version 1 artefacts hold bitmap-dirtier runs.
const artefactVersion = 2

// artefactMagic opens every artefact file.
const artefactMagic = "wavm3run"

const (
	artefactHeaderLen = 8 + 4 + 8 // magic + version + payload length
	artefactSumLen    = sha256.Size
)

// Quarantine reasons, embedded in quarantined file names so a corrupt
// cache dir is diagnosable at a glance.
const (
	reasonTruncated = "truncated"
	reasonMagic     = "badmagic"
	reasonVersion   = "version"
	reasonChecksum  = "checksum"
	reasonKey       = "keymismatch"
	reasonMalformed = "malformed"
)

// artefactError is a decode failure: reason selects the quarantine
// label, msg carries the specifics.
type artefactError struct {
	reason string
	msg    string
}

func (e *artefactError) Error() string { return "sim: artefact " + e.reason + ": " + e.msg }

func artefactErrf(reason, format string, args ...any) *artefactError {
	return &artefactError{reason: reason, msg: fmt.Sprintf(format, args...)}
}

// encodeCacheKey renders a cache-key scenario (withDefaults applied, Name
// stripped — see cacheKey) into its canonical bytes. Every field that
// influences the physics is included in a fixed order; the SHA-256 of
// these bytes is the artefact's identity on disk. Changing this encoding
// is a format change: bump artefactVersion.
func encodeCacheKey(key Scenario) []byte {
	var w artefactWriter
	w.str(key.Pair)
	w.i64(int64(key.Kind))
	w.str(key.MigratingType)
	w.profile(key.MigratingProfile)
	w.i64(int64(key.SourceLoadVMs))
	w.i64(int64(key.TargetLoadVMs))
	w.profile(key.LoadProfile)
	w.i64(int64(key.PreMigration))
	w.i64(int64(key.PostMigration))
	w.i64(int64(key.Migration.Kind))
	w.i64(int64(key.Migration.InitiationTime))
	w.i64(int64(key.Migration.ActivationTime))
	w.i64(int64(key.Migration.MaxRounds))
	w.i64(int64(key.Migration.StopThreshold))
	w.f64(key.Migration.MaxDataFactor)
	w.i64(int64(key.Meter.Period))
	w.f64(key.Meter.Accuracy)
	w.f64(key.Meter.NoiseSigma)
	w.i64(key.Seed)
	return w.b
}

// artefactName is the store-facing file name of a key: the hex key hash
// plus the encoding version, so a format bump cannot even collide with
// old files, and an ls of the cache dir reads as a content-addressed
// index.
func artefactName(hash [sha256.Size]byte) string {
	return fmt.Sprintf("%s.v%d.run", hex.EncodeToString(hash[:]), artefactVersion)
}

// encodeArtefact renders one completed run as a self-contained artefact
// file: header, identity, result payload, checksum.
func encodeArtefact(keyBytes []byte, hash [sha256.Size]byte, res *RunResult) []byte {
	var p artefactWriter
	p.bytes(hash[:])
	p.str(string(keyBytes))
	p.i64(int64(res.Bounds.MS))
	p.i64(int64(res.Bounds.TS))
	p.i64(int64(res.Bounds.TE))
	p.i64(int64(res.Bounds.ME))
	p.energy(res.SourceEnergy)
	p.energy(res.TargetEnergy)
	p.i64(int64(res.BytesSent))
	p.i64(int64(res.Rounds))
	p.i64(int64(res.Downtime))
	p.power(res.Source)
	p.power(res.Target)
	p.features(res.SourceFeatures)
	p.features(res.TargetFeatures)

	out := make([]byte, 0, artefactHeaderLen+len(p.b)+artefactSumLen)
	out = append(out, artefactMagic...)
	out = binary.LittleEndian.AppendUint32(out, artefactVersion)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(p.b)))
	out = append(out, p.b...)
	sum := sha256.Sum256(out)
	return append(out, sum[:]...)
}

// decodeArtefact parses and verifies one artefact against the cache key
// the caller is looking up. Any deviation — truncation, bit-rot, a stale
// encoding version, a file that answers a different key — is an
// *artefactError; the caller treats every error as a miss and
// quarantines the file. A nil error guarantees the checksum held and the
// artefact's identity matches (keyBytes, hash) exactly.
func decodeArtefact(data []byte, keyBytes []byte, hash [sha256.Size]byte) (*RunResult, error) {
	if len(data) < artefactHeaderLen+artefactSumLen {
		return nil, artefactErrf(reasonTruncated, "%d bytes, need at least %d", len(data), artefactHeaderLen+artefactSumLen)
	}
	if string(data[:8]) != artefactMagic {
		return nil, artefactErrf(reasonMagic, "leading bytes %q", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != artefactVersion {
		return nil, artefactErrf(reasonVersion, "encoding version %d, want %d", v, artefactVersion)
	}
	plen := binary.LittleEndian.Uint64(data[12:20])
	if plen != uint64(len(data)-artefactHeaderLen-artefactSumLen) {
		return nil, artefactErrf(reasonTruncated, "payload length %d, file holds %d", plen, len(data)-artefactHeaderLen-artefactSumLen)
	}
	body, sum := data[:len(data)-artefactSumLen], data[len(data)-artefactSumLen:]
	if got := sha256.Sum256(body); string(got[:]) != string(sum) {
		return nil, artefactErrf(reasonChecksum, "stored checksum does not match content")
	}

	r := artefactReader{b: body[artefactHeaderLen:]}
	storedHash, err := r.take(artefactSumLen)
	if err != nil {
		return nil, err
	}
	if string(storedHash) != string(hash[:]) {
		return nil, artefactErrf(reasonKey, "artefact answers key %x, lookup wants %x", storedHash, hash[:])
	}
	storedKey, err := r.str()
	if err != nil {
		return nil, err
	}
	if storedKey != string(keyBytes) {
		return nil, artefactErrf(reasonKey, "embedded scenario differs from the lookup's canonical encoding")
	}

	res := &RunResult{}
	for _, dst := range []*time.Duration{&res.Bounds.MS, &res.Bounds.TS, &res.Bounds.TE, &res.Bounds.ME} {
		v, err := r.i64()
		if err != nil {
			return nil, err
		}
		*dst = time.Duration(v)
	}
	if res.SourceEnergy, err = r.energy(); err != nil {
		return nil, err
	}
	if res.TargetEnergy, err = r.energy(); err != nil {
		return nil, err
	}
	sent, err := r.i64()
	if err != nil {
		return nil, err
	}
	res.BytesSent = units.Bytes(sent)
	rounds, err := r.i64()
	if err != nil {
		return nil, err
	}
	res.Rounds = int(rounds)
	down, err := r.i64()
	if err != nil {
		return nil, err
	}
	res.Downtime = time.Duration(down)
	if res.Source, err = r.power(); err != nil {
		return nil, err
	}
	if res.Target, err = r.power(); err != nil {
		return nil, err
	}
	if res.SourceFeatures, err = r.features(); err != nil {
		return nil, err
	}
	if res.TargetFeatures, err = r.features(); err != nil {
		return nil, err
	}
	if r.off != len(r.b) {
		return nil, artefactErrf(reasonMalformed, "%d trailing payload bytes", len(r.b)-r.off)
	}
	return res, nil
}

// artefactWriter accumulates the little-endian encoding.
type artefactWriter struct{ b []byte }

func (w *artefactWriter) u64(v uint64)   { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *artefactWriter) i64(v int64)    { w.u64(uint64(v)) }
func (w *artefactWriter) f64(v float64)  { w.u64(math.Float64bits(v)) }
func (w *artefactWriter) bytes(p []byte) { w.b = append(w.b, p...) }
func (w *artefactWriter) str(s string)   { w.u64(uint64(len(s))); w.b = append(w.b, s...) }

func (w *artefactWriter) profile(p workload.Profile) {
	w.str(p.Name)
	w.f64(float64(p.CPUPerVCPU))
	w.f64(p.DirtyPagesPerSecond)
	w.f64(float64(p.WorkingSet))
	w.f64(float64(p.HotFrac))
	w.f64(p.HotProb)
}

func (w *artefactWriter) energy(e trace.PhaseEnergy) {
	w.f64(float64(e.Initiation))
	w.f64(float64(e.Transfer))
	w.f64(float64(e.Activation))
}

func (w *artefactWriter) power(p *trace.PowerTrace) {
	w.str(p.Host)
	w.u64(uint64(len(p.Samples)))
	for _, s := range p.Samples {
		w.i64(int64(s.At))
		w.f64(float64(s.Power))
	}
}

func (w *artefactWriter) features(f *trace.FeatureTrace) {
	w.str(f.Host)
	w.u64(uint64(len(f.Samples)))
	for _, s := range f.Samples {
		w.i64(int64(s.At))
		w.f64(float64(s.HostCPU))
		w.f64(float64(s.VMCPU))
		w.f64(float64(s.Bandwidth))
		w.f64(float64(s.DirtyRatio))
	}
}

// artefactReader walks the payload with explicit bounds checks: every
// read that would cross the end of the buffer is a truncation error, and
// every declared element count is capped by the bytes actually present
// before anything is allocated, so a corrupt length field cannot demand
// gigabytes.
type artefactReader struct {
	b   []byte
	off int
}

func (r *artefactReader) take(n int) ([]byte, error) {
	if n < 0 || len(r.b)-r.off < n {
		return nil, artefactErrf(reasonTruncated, "payload ends %d bytes early", n-(len(r.b)-r.off))
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p, nil
}

func (r *artefactReader) u64() (uint64, error) {
	p, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(p), nil
}

func (r *artefactReader) i64() (int64, error) {
	v, err := r.u64()
	return int64(v), err
}

func (r *artefactReader) f64() (float64, error) {
	v, err := r.u64()
	return math.Float64frombits(v), err
}

func (r *artefactReader) str() (string, error) {
	n, err := r.u64()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.b)-r.off) {
		return "", artefactErrf(reasonMalformed, "string length %d exceeds remaining payload", n)
	}
	p, err := r.take(int(n))
	return string(p), err
}

// count reads an element count and bounds it by the bytes remaining for
// elements of the given size.
func (r *artefactReader) count(itemSize int) (int, error) {
	n, err := r.u64()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(r.b)-r.off)/uint64(itemSize) {
		return 0, artefactErrf(reasonMalformed, "element count %d exceeds remaining payload", n)
	}
	return int(n), nil
}

func (r *artefactReader) energy() (trace.PhaseEnergy, error) {
	var e trace.PhaseEnergy
	for _, dst := range []*units.Joules{&e.Initiation, &e.Transfer, &e.Activation} {
		v, err := r.f64()
		if err != nil {
			return e, err
		}
		*dst = units.Joules(v)
	}
	return e, nil
}

func (r *artefactReader) power() (*trace.PowerTrace, error) {
	host, err := r.str()
	if err != nil {
		return nil, err
	}
	n, err := r.count(16)
	if err != nil {
		return nil, err
	}
	p := &trace.PowerTrace{Host: host, Samples: make([]trace.Sample, n)}
	for i := range p.Samples {
		at, err := r.i64()
		if err != nil {
			return nil, err
		}
		w, err := r.f64()
		if err != nil {
			return nil, err
		}
		p.Samples[i] = trace.Sample{At: time.Duration(at), Power: units.Watts(w)}
	}
	return p, nil
}

func (r *artefactReader) features() (*trace.FeatureTrace, error) {
	host, err := r.str()
	if err != nil {
		return nil, err
	}
	n, err := r.count(40)
	if err != nil {
		return nil, err
	}
	f := &trace.FeatureTrace{Host: host, Samples: make([]trace.FeatureSample, n)}
	for i := range f.Samples {
		at, err := r.i64()
		if err != nil {
			return nil, err
		}
		hostCPU, err := r.f64()
		if err != nil {
			return nil, err
		}
		vmCPU, err := r.f64()
		if err != nil {
			return nil, err
		}
		bw, err := r.f64()
		if err != nil {
			return nil, err
		}
		dr, err := r.f64()
		if err != nil {
			return nil, err
		}
		f.Samples[i] = trace.FeatureSample{
			At:         time.Duration(at),
			HostCPU:    units.Utilisation(hostCPU),
			VMCPU:      units.Utilisation(vmCPU),
			Bandwidth:  units.BitsPerSecond(bw),
			DirtyRatio: units.Fraction(dr),
		}
	}
	return f, nil
}

// migrationKindGuard pins the assumption that migration.Kind stays an
// integer enum: a change to a non-integer representation would silently
// alter the canonical key encoding.
var _ = int64(migration.Kind(0))
