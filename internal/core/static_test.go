package core

import (
	"reflect"
	"testing"

	"pap/internal/workloads"
)

// perturbed returns cfg with every field changed that symbolPlanKey does not
// read: bools flipped, integers moved by one. Fields of other kinds (the
// fault hook) stay as they are.
func perturbed(cfg Config) Config {
	v := reflect.ValueOf(&cfg).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch name, f := v.Type().Field(i).Name, v.Field(i); {
		case name == "DisableParentMerge" || name == "DisableCCMerge":
		case f.Kind() == reflect.Bool:
			f.SetBool(!f.Bool())
		case f.CanInt():
			f.SetInt(f.Int() + 1)
		case f.CanUint():
			f.SetUint(f.Uint() + 1)
		}
	}
	return cfg
}

// TestSymbolPlanCacheKeyComplete checks that the Static's symbol-plan cache
// is keyed by everything buildSymbolPlan reads. For every automaton of the
// evaluation, every symbol and all four merge-ablation combinations, the
// plan cached under one Config must deep-equal a fresh build under another
// Config that differs in every field outside the key. A Config field that
// buildSymbolPlan starts reading without joining symbolPlanKey fails here,
// instead of a run being served a stale plan. -short checks every seventh
// symbol.
func TestSymbolPlanCacheKeyComplete(t *testing.T) {
	for _, s := range workloads.All() {
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			n, err := s.Build(0.05, 1)
			if err != nil {
				t.Fatal(err)
			}
			st := NewStatic(n, nil)
			step := 1
			if testing.Short() {
				step = 7
			}
			for _, parent := range []bool{false, true} {
				for _, cc := range []bool{false, true} {
					cfg := DefaultConfig(1)
					cfg.DisableParentMerge, cfg.DisableCCMerge = parent, cc
					other := perturbed(cfg)
					if symbolPlanKey(&other) != symbolPlanKey(&cfg) {
						t.Fatal("perturbed moved a key field")
					}
					for sym := 0; sym < 256; sym += step {
						cached := st.symbolPlan(byte(sym), &cfg)
						if again := st.symbolPlan(byte(sym), &other); again != cached {
							t.Fatalf("symbol %d, parent=%v cc=%v: one key, two cached plans", sym, parent, cc)
						}
						if fresh := buildSymbolPlan(n, byte(sym), other); !reflect.DeepEqual(cached, fresh) {
							t.Fatalf("symbol %d, parent=%v cc=%v: cached plan differs from a fresh build", sym, parent, cc)
						}
					}
				}
			}
		})
	}
}
