package energy

import (
	"math"
	"testing"
)

func TestTable2CIFAREnergies(t *testing.T) {
	// Per-round CIFAR-10 training energies must reproduce Table 2.
	want := []float64{6.5, 6.0, 2.6, 8.5} // mWh, as displayed in the paper
	w := CIFAR10Workload()
	for i, d := range Devices() {
		got := d.TrainRoundWh(w) * 1000
		if math.Abs(got-want[i]) > 0.05 {
			t.Fatalf("%s: CIFAR round = %.4f mWh, want ~%.1f", d.Name, got, want[i])
		}
	}
}

func TestTable2FEMNISTEnergiesShape(t *testing.T) {
	// FEMNIST per-round energy is the CIFAR energy scaled by the workload
	// ratio (params * batch * steps): (1690046*16*7)/(89834*32*20) ≈ 3.29.
	// The paper's displayed FEMNIST column {22, 20, 8.4, 28} is this value
	// rounded; we assert the ratio, which is the methodology.
	wc, wf := CIFAR10Workload(), FEMNISTWorkload()
	wantRatio := float64(wf.Params*wf.BatchSize*wf.LocalSteps) /
		float64(wc.Params*wc.BatchSize*wc.LocalSteps)
	for _, d := range Devices() {
		ratio := d.TrainRoundWh(wf) / d.TrainRoundWh(wc)
		if math.Abs(ratio-wantRatio) > 1e-9 {
			t.Fatalf("%s: FEMNIST/CIFAR ratio = %v, want %v", d.Name, ratio, wantRatio)
		}
	}
	// And the displayed values are within the paper's rounding of ours.
	wantDisplay := []float64{22, 20, 8.4, 28}
	for i, d := range Devices() {
		got := d.TrainRoundWh(wf) * 1000
		if math.Abs(got-wantDisplay[i]) > 0.7 {
			t.Fatalf("%s: FEMNIST round = %.3f mWh, paper shows %.1f", d.Name, got, wantDisplay[i])
		}
	}
}

func TestTable2RoundBudgets(t *testing.T) {
	// Table 2 "Training rounds" columns: CIFAR-10 at 10% battery,
	// FEMNIST at 50% battery.
	wantCIFAR := []int{272, 324, 681, 272}
	wantFEMNIST := []int{413, 492, 1034, 413}
	for i, d := range Devices() {
		if got := d.RoundBudget(CIFAR10Workload(), 0.10); got != wantCIFAR[i] {
			t.Fatalf("%s: CIFAR budget = %d, want %d", d.Name, got, wantCIFAR[i])
		}
		if got := d.RoundBudget(FEMNISTWorkload(), 0.50); got != wantFEMNIST[i] {
			t.Fatalf("%s: FEMNIST budget = %d, want %d", d.Name, got, wantFEMNIST[i])
		}
	}
}

func TestDPSGDNetworkEnergyMatchesTable3(t *testing.T) {
	// Table 3: D-PSGD on CIFAR-10 trains every one of 1000 rounds on all
	// 256 nodes for a total of 1510.04 Wh.
	devices := Devices()
	perRound := NetworkRoundWh(256, devices, CIFAR10Workload())
	total := perRound * 1000
	if math.Abs(total-1510.04) > 0.05 {
		t.Fatalf("D-PSGD CIFAR total = %.3f Wh, paper reports 1510.04", total)
	}
	// FEMNIST: 3000 rounds -> 14914.38 Wh (paper). Methodology ratio gives
	// the same value within 0.05%.
	totalF := NetworkRoundWh(256, devices, FEMNISTWorkload()) * 3000
	if math.Abs(totalF-14914.38)/14914.38 > 5e-4 {
		t.Fatalf("D-PSGD FEMNIST total = %.2f Wh, paper reports 14914.38", totalF)
	}
}

func TestTrainRoundSecondsScaling(t *testing.T) {
	d := Devices()[0]
	w := CIFAR10Workload()
	base := d.TrainRoundSeconds(w)
	w2 := w
	w2.BatchSize *= 2
	if math.Abs(d.TrainRoundSeconds(w2)-2*base) > 1e-9 {
		t.Fatal("duration must scale linearly with batch size")
	}
	w3 := w
	w3.Params *= 3
	if math.Abs(d.TrainRoundSeconds(w3)-3*base) > 1e-9 {
		t.Fatal("duration must scale linearly with parameter count")
	}
	w4 := w
	w4.LocalSteps *= 5
	if math.Abs(d.TrainRoundSeconds(w4)-5*base) > 1e-9 {
		t.Fatal("duration must scale linearly with local steps")
	}
}

func TestInferenceTimesPlausible(t *testing.T) {
	// Calibrated MobileNet-v2 inference times should be tens of ms, the
	// range the AI Benchmark reports for these SoCs.
	for _, d := range Devices() {
		ms := d.InferenceSeconds * 1000
		if ms < 5 || ms > 500 {
			t.Fatalf("%s: implausible inference time %.1f ms", d.Name, ms)
		}
	}
}

func TestWorkloadValidate(t *testing.T) {
	if err := CIFAR10Workload().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Workload{Params: 0, BatchSize: 1, LocalSteps: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("want error for zero params")
	}
}

func TestAssignDevicesRoundRobin(t *testing.T) {
	devices := Devices()
	assigned := AssignDevices(10, devices)
	for i, d := range assigned {
		if d.Name != devices[i%4].Name {
			t.Fatalf("node %d assigned %s", i, d.Name)
		}
	}
	// The paper's even split: 256 nodes -> 64 of each device.
	counts := map[string]int{}
	for _, d := range AssignDevices(256, devices) {
		counts[d.Name]++
	}
	for name, c := range counts {
		if c != 64 {
			t.Fatalf("%s assigned %d nodes, want 64", name, c)
		}
	}
}

func TestCommEnergyRatioMatchesPaper(t *testing.T) {
	// The paper: training 1.51 kWh vs communication 7 Wh, "more than 200x".
	ratio := 1 / CommShareOfTraining
	if ratio < 200 || ratio > 230 {
		t.Fatalf("comm ratio = %v, want ~216", ratio)
	}
}

func TestAssignDevicesPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for empty device list")
		}
	}()
	AssignDevices(4, nil)
}
