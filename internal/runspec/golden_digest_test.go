package runspec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"slipstream/internal/core"
	"slipstream/internal/kernels"
)

// goldenDigests pins the SHA-256 of the JSON-encoded Result of every
// golden run, keyed by RunSpec.String (prefixed "audited " for runs with
// the auditor attached). Any change to a simulated statistic, a counter,
// or the Result encoding changes a digest: a deliberate model change
// must update these pins and bump core.SimVersion together, so cached
// results of the old model are never served for the new one.
var goldenDigests = map[string]string{
	"FFT/tiny slipstream/L1 @8 tl si":                                 "b46fb107d84306ab39f782b1a49eda0bc79a2518a13aaa2ca1b401b85f50285b",
	"OCEAN/tiny slipstream/L1 @8 tl si":                               "c491e988d32e3efcbada1e9463cbce8e983029ac041bc331e021e230db8397e8",
	"WATER-NS/tiny slipstream/L1 @8 tl si":                            "4c1ee01217964580017742aca4b831cb9a59cb3cfb36d622fdc18090ee25c143",
	"WATER-SP/tiny slipstream/L1 @8 tl si":                            "427ce9baaec9b3a7f8c9a808b43ae41055e14fa19c69b6142ca549e4e5adc8fb",
	"SOR/tiny slipstream/L1 @8 tl si":                                 "d43c000587e433a3dabe12d5f822c37f333c756aeb7506bbea59660deb7ca113",
	"LU/tiny slipstream/L1 @8 tl si":                                  "2aae24fb786731fd5fdbb0b0a294af11ebfb1977774d03c4bd317c403e1e9758",
	"CG/tiny slipstream/L1 @8 tl si":                                  "5589a5d3b4104dfc83de648343e5799e54bf33197e87fa63c5e0cc4172d30ce6",
	"MG/tiny slipstream/L1 @8 tl si":                                  "694ca3319192d34a1d143a4a7a885d8c2141e6165afc0070b3614fec5030d7a3",
	"SP/tiny slipstream/L1 @8 tl si":                                  "9b3161e4ee9b5d333194fbb182bc7cc8c5937b6cf3cd51c0cde2ae24e85d95f7",
	"BITONIC/tiny slipstream/L1 @8 tl si":                             "006875db8022950d213fd7f693a90f19137a492a1aaa366fb1d44fe8ce2d9f99",
	"FWT/tiny slipstream/L1 @8 tl si":                                 "a2b7607bbd8dda99a164e1b087ce1d7850b15957112481ed0479435ab755b308",
	"MAXPOOL/tiny slipstream/L1 @8 tl si":                             "aa4805ce45a552678cec7aea4720fc2034532e26278037cf438d9eb8d848c2eb",
	"SYNTH/tiny slipstream/L1 @8 tl si":                               "c97a6313e6360cfafc762fd265f1a9d50e86ffc7cd5fd197b26cb3c1d2afd3c1",
	"SYNTH:mig=0.4,pc=3,seed=11/tiny slipstream/L1 @8 tl si":          "554aa54a7774080575cd60cccaa7e08e3e19d21898ab50b9b2c637b49ab28753",
	"SYNTH:fs=0.3,lock=1,sync=0.2,wr=0.8/tiny slipstream/L1 @8 tl si": "afe89f5a22aae6051283fd6b5e33ac4073bc7fc3c302a3d8df954ecb9e1661d9",
	"sor/tiny sequential @1":                                          "bcbf8722a9067e9869cc25842de396df12eb501c6241a508d2af3b62a89a5425",
	"sor/tiny single @4":                                              "5327040f441159a2ec7d4bbc62085470f47c1850fc459452d1b5eaf08fae90b8",
	"sor/tiny double @4":                                              "f522caa81be0a58912281c516cd795b08634e4f11c8733c2b5e06ff17408da1c",
	"sor/tiny slipstream/L1 @4 tl si adaptive":                        "960762e73f2520fa24638627d8ab01966f96e53e4768f7bfd2445ca56cf56e43",
	"audited sor/tiny slipstream/L1 @8 tl si":                         "d43c000587e433a3dabe12d5f822c37f333c756aeb7506bbea59660deb7ca113",
}

// goldenRun is one pinned run.
type goldenRun struct {
	spec  RunSpec
	audit bool
}

func (g goldenRun) key() string {
	if g.audit {
		return "audited " + g.spec.Normalize().String()
	}
	return g.spec.Normalize().String()
}

// goldenGroup is the set of golden runs one subtest checks.
type goldenGroup struct {
	name string
	runs []goldenRun
}

// goldenGroups lists every run goldenDigests pins: each registered kernel
// in the richest configuration (slipstream with transparent loads and
// self-invalidation on an 8-node machine), two parameterized SYNTH
// presets, a sweep of the other modes on one kernel, and one audited run.
func goldenGroups() []goldenGroup {
	rich := func(kernel string, params kernels.Params) goldenRun {
		return goldenRun{spec: RunSpec{
			Kernel: kernel, Params: params, Size: kernels.Tiny,
			Mode: core.ModeSlipstream, CMPs: 8,
			TransparentLoads: true, SelfInvalidate: true,
		}}
	}
	var groups []goldenGroup
	for _, name := range kernels.AllNames() {
		groups = append(groups, goldenGroup{name, []goldenRun{rich(name, "")}})
	}
	audited := rich("sor", "")
	audited.audit = true
	return append(groups,
		goldenGroup{"synth-presets", []goldenRun{
			rich("SYNTH", "mig=0.4,pc=3,seed=11"),
			rich("SYNTH", "fs=0.3,lock=1,sync=0.2,wr=0.8"),
		}},
		goldenGroup{"modes", []goldenRun{
			{spec: RunSpec{Kernel: "sor", Size: kernels.Tiny, Mode: core.ModeSequential, CMPs: 1}},
			{spec: RunSpec{Kernel: "sor", Size: kernels.Tiny, Mode: core.ModeSingle, CMPs: 4}},
			{spec: RunSpec{Kernel: "sor", Size: kernels.Tiny, Mode: core.ModeDouble, CMPs: 4}},
			{spec: RunSpec{Kernel: "sor", Size: kernels.Tiny, Mode: core.ModeSlipstream, CMPs: 4,
				TransparentLoads: true, SelfInvalidate: true, AdaptiveARSync: true}},
		}},
		goldenGroup{"audited", []goldenRun{audited}},
	)
}

// TestGoldenDigests runs every golden run and compares its result digest
// with the pin; the auditor must observe without perturbing the result,
// so the audited run's pin equals its unaudited twin's. A mismatch prints
// the new digest; see goldenDigests for when updating a pin is legitimate.
func TestGoldenDigests(t *testing.T) {
	groups := goldenGroups()
	listed := make(map[string]bool)
	for _, grp := range groups {
		for _, g := range grp.runs {
			listed[g.key()] = true
			if _, ok := goldenDigests[g.key()]; !ok {
				t.Errorf("%s: no pinned digest", g.key())
			}
		}
	}
	for key := range goldenDigests {
		if !listed[key] {
			t.Errorf("stale pin %q: no golden run produces it", key)
		}
	}

	for _, grp := range groups {
		t.Run(grp.name, func(t *testing.T) {
			for _, g := range grp.runs {
				res, err := g.spec.RunObserved(g.audit)
				if err != nil {
					t.Fatalf("%s: %v", g.key(), err)
				}
				if res.VerifyErr != nil {
					t.Fatalf("%s: verification: %v", g.key(), res.VerifyErr)
				}
				b, err := json.Marshal(res)
				if err != nil {
					t.Fatalf("%s: marshal: %v", g.key(), err)
				}
				sum := sha256.Sum256(b)
				if got := hex.EncodeToString(sum[:]); got != goldenDigests[g.key()] {
					t.Errorf("%s: result digest %s, pinned %s", g.key(), got, goldenDigests[g.key()])
				}
			}
		})
	}
}
