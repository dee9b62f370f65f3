package core

import (
	"reflect"
	"testing"

	"looppoint/internal/omp"
	"looppoint/internal/testprog"
	"looppoint/internal/timing"
)

// TestConfigFieldsClassified: every Config and RunOpts field names its
// identity class. A new field without one would otherwise be hashed —
// or skipped — by accident, silently splitting or merging jobs.
func TestConfigFieldsClassified(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(Config{}), reflect.TypeOf(RunOpts{})} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			tag, ok := f.Tag.Lookup("identity")
			if !ok {
				t.Errorf("%s.%s has no identity tag: classify it as analysis, selection, simulation, or host", typ.Name(), f.Name)
				continue
			}
			if _, known := stageNames[tag]; !known {
				t.Errorf("%s.%s has unknown identity class %q", typ.Name(), f.Name, tag)
			}
		}
	}
}

// mutateField changes v to a different value of its type.
func mutateField(t *testing.T, name string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.125)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	default:
		t.Fatalf("%s: no mutation for a %s", name, v.Type())
	}
}

// TestFingerprintsFollowClassification changes one Config field at a
// time and checks each fingerprint moves exactly when it should: host
// fields move none; an analysis field moves the durable-progress
// fingerprint and everything downstream; selection and simulation
// fields move the region-journal fingerprint and the report identity
// (the harness resume journal's) but not the analysis epochs.
func TestFingerprintsFollowClassification(t *testing.T) {
	prog := testprog.Phased(4, 2, 10, omp.Passive)
	simCfg := timing.Gainestown(4)
	base := testConfig()
	base.fill()
	prints := func(cfg Config) [4]string {
		sel := &Selection{Analysis: &Analysis{Prog: prog, Config: cfg}}
		return [4]string{
			progressFingerprint(prog, &cfg),
			Fingerprint(StageSelection, cfg),
			simFingerprint(sel, simCfg),
			Fingerprint(StageSimulation, cfg, RunOpts{}),
		}
	}
	names := [4]string{"progress", "selection-stage", "region journal", "report"}
	want := prints(base)
	typ := reflect.TypeOf(base)
	stages := fieldStages(typ)
	for i := 0; i < typ.NumField(); i++ {
		cfg := base
		mutateField(t, typ.Field(i).Name, reflect.ValueOf(&cfg).Elem().Field(i))
		got := prints(cfg)
		stage := stages[i]
		moves := [4]bool{
			stage == StageAnalysis,
			stage == StageAnalysis || stage == StageSelection,
			stage != StageHost,
			stage != StageHost,
		}
		for k := range got {
			if (got[k] != want[k]) != moves[k] {
				t.Errorf("%s (%s): %s fingerprint changed = %v, want %v", typ.Field(i).Name,
					typ.Field(i).Tag.Get("identity"), names[k], got[k] != want[k], moves[k])
			}
		}
	}

	// RunOpts: widths are host-only; everything else shapes the report.
	ro := RunOpts{}
	roWant := Fingerprint(StageSimulation, base, ro)
	roTyp := reflect.TypeOf(ro)
	roStages := fieldStages(roTyp)
	for i := 0; i < roTyp.NumField(); i++ {
		o := ro
		mutateField(t, roTyp.Field(i).Name, reflect.ValueOf(&o).Elem().Field(i))
		changed := Fingerprint(StageSimulation, base, o) != roWant
		if changed != (roStages[i] != StageHost) {
			t.Errorf("RunOpts.%s: report fingerprint changed = %v", roTyp.Field(i).Name, changed)
		}
	}
}

// TestFingerprintRejectsUnclassifiedField: the encoder refuses a struct
// that classifies some fields but not all, and values it cannot encode
// canonically (maps iterate in random order).
func TestFingerprintRejectsUnclassifiedField(t *testing.T) {
	type partial struct {
		A int `identity:"analysis"`
		B int
	}
	for name, v := range map[string]any{
		"partial": partial{},
		"bad class": struct {
			A int `identity:"everything"`
		}{},
		"map": map[int]int{1: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Fingerprint did not panic", name)
				}
			}()
			Fingerprint(StageSimulation, v)
		}()
	}
}
