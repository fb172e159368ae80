package harness

import (
	"testing"

	"slipstream/internal/core"
	"slipstream/internal/kernels"
)

// TestGoldenLeads pins the leads study — the mean A-over-R session lead of
// every kernel under every policy — at tiny size on {2,4} CMPs. The means
// are exact float64 values, so a changed lead or a changed set of paired
// sessions moves them.
func TestGoldenLeads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 36 slipstream simulations")
	}
	want := []LeadRow{
		{"FFT", core.OneTokenLocal, 7117.541666666667},
		{"FFT", core.ZeroTokenLocal, 1385.5416666666667},
		{"FFT", core.OneTokenGlobal, 6992.041666666667},
		{"FFT", core.ZeroTokenGlobal, 0},
		{"OCEAN", core.OneTokenLocal, 10172.625},
		{"OCEAN", core.ZeroTokenLocal, 3258.5},
		{"OCEAN", core.OneTokenGlobal, 7180.875},
		{"OCEAN", core.ZeroTokenGlobal, 822.5833333333334},
		{"WATER-NS", core.OneTokenLocal, 14436.333333333334},
		{"WATER-NS", core.ZeroTokenLocal, 9226.75},
		{"WATER-NS", core.OneTokenGlobal, 12214.291666666666},
		{"WATER-NS", core.ZeroTokenGlobal, 9159.375},
		{"WATER-SP", core.OneTokenLocal, 29408.75},
		{"WATER-SP", core.ZeroTokenLocal, 16481.791666666668},
		{"WATER-SP", core.OneTokenGlobal, 24336.333333333332},
		{"WATER-SP", core.ZeroTokenGlobal, 5299.041666666667},
		{"SOR", core.OneTokenLocal, 671.875},
		{"SOR", core.ZeroTokenLocal, 424.75},
		{"SOR", core.OneTokenGlobal, 671.875},
		{"SOR", core.ZeroTokenGlobal, 520.375},
		{"LU", core.OneTokenLocal, 75507.02777777778},
		{"LU", core.ZeroTokenLocal, 27144.277777777777},
		{"LU", core.OneTokenGlobal, 46114.416666666664},
		{"LU", core.ZeroTokenGlobal, 21955.03125},
		{"CG", core.OneTokenLocal, 3004.1125},
		{"CG", core.ZeroTokenLocal, 824.7375},
		{"CG", core.OneTokenGlobal, 2573.9375},
		{"CG", core.ZeroTokenGlobal, 389.875},
		{"MG", core.OneTokenLocal, 3847.25},
		{"MG", core.ZeroTokenLocal, 1897.5384615384614},
		{"MG", core.OneTokenGlobal, 2944.173076923077},
		{"MG", core.ZeroTokenGlobal, 397.52},
		{"SP", core.OneTokenLocal, 6163.0546875},
		{"SP", core.ZeroTokenLocal, 1630.734375},
		{"SP", core.OneTokenGlobal, 5759.0234375},
		{"SP", core.ZeroTokenGlobal, 1950.9270833333333},
	}
	s := NewSession(Config{Size: kernels.Tiny, CMPCounts: []int{2, 4}})
	got, err := s.ExtLeadsData(kernels.Names())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
}
