package runspec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"slipstream/internal/core"
	"slipstream/internal/kernels"
	"slipstream/internal/obs"
)

// streamHash folds every bus event, in delivery order, into one SHA-256.
// Result digests (TestGoldenDigests) pin what a run computes; this pins
// the order in which the run reports it, which a Result cannot see: two
// engines that reach the same Result may still interleave engine steps,
// accesses, and line events differently on the bus.
type streamHash struct {
	h      hash.Hash
	buf    []byte
	events int
}

func newStreamHash() *streamHash { return &streamHash{h: sha256.New()} }

func (s *streamHash) Event(e *obs.Event) {
	b := s.buf[:0]
	for _, v := range []int64{
		int64(e.Kind), e.Time, e.Dur, e.Count, int64(e.Task), int64(e.CPU),
		int64(e.Session), int64(e.Role), int64(e.Op), int64(e.Addr),
		int64(e.Level), int64(e.Flags), int64(e.Dir), int64(e.Sharers),
		e.BD.Busy, e.BD.MemStall, e.BD.Barrier, e.BD.Lock, e.BD.ARSync,
	} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(e.Note)))
	b = append(b, e.Note...)
	s.h.Write(b)
	s.buf = b
	s.events++
}

func (s *streamHash) sum() string { return hex.EncodeToString(s.h.Sum(nil)) }

// goldenStreams pins the SHA-256 of each run's full audited event stream,
// keyed by RunSpec.String. A legitimate change to the model or to what the
// bus reports updates these pins; a host-speed change to the engine or the
// memory system must leave them alone.
var goldenStreams = map[string]string{
	"sor/tiny slipstream/G0 @4 tl si":   "78739f8c997e5e20652281acb5977c1c78038ab7c9d8157edab1ae0d12ca7749",
	"OCEAN/tiny slipstream/G0 @4 tl si": "888b34db661abfd3fc5330b8d375fc914812aefc5dfe4a87aff173981152e859",
	"fft/tiny double @4":                "2b2abd8ecb37323f60437d4b120cec9121c4a10899efed72895111f54293b213",
	"SYNTH/tiny double @4":              "33a47100df827ce6a20aa97a7e63e7082e2b95a9df689499fb0632386c5a6144",
}

func goldenStreamSpecs() []RunSpec {
	slip := func(kernel string) RunSpec {
		return RunSpec{
			Kernel: kernel, Size: kernels.Tiny, Mode: core.ModeSlipstream,
			ARSync: core.ZeroTokenGlobal, CMPs: 4,
			TransparentLoads: true, SelfInvalidate: true,
		}
	}
	double := func(kernel string) RunSpec {
		return RunSpec{Kernel: kernel, Size: kernels.Tiny, Mode: core.ModeDouble, CMPs: 4}
	}
	return []RunSpec{slip("sor"), slip("OCEAN"), double("fft"), double("SYNTH")}
}

// TestGoldenEventStreams runs each pinned spec with the auditor and a
// stream hasher on the bus and compares the hash of every delivered event
// (kind, times, counts, attribution, address, classification, directory
// state, task breakdown, note).
func TestGoldenEventStreams(t *testing.T) {
	specs := goldenStreamSpecs()
	if len(specs) != len(goldenStreams) {
		t.Fatalf("%d specs but %d pins", len(specs), len(goldenStreams))
	}
	for _, sp := range specs {
		key := sp.Normalize().String()
		want, ok := goldenStreams[key]
		if !ok {
			t.Errorf("%s: no pinned stream digest", key)
			continue
		}
		h := newStreamHash()
		res, err := sp.RunObserved(true, h)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if res.VerifyErr != nil {
			t.Fatalf("%s: verification: %v", key, res.VerifyErr)
		}
		if got := h.sum(); got != want {
			t.Errorf("%s: stream digest %s over %d events, pinned %s", key, got, h.events, want)
		}
	}
}
