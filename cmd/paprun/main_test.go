package main

import (
	"os"
	"path/filepath"
	"testing"

	"pap"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestReadRules(t *testing.T) {
	p := writeFile(t, "rules.txt", "# comment\n\nabc\n  def  \n#x\nghi\n")
	rules, err := readRules(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 || rules[0] != "abc" || rules[1] != "def" || rules[2] != "ghi" {
		t.Fatalf("rules = %v", rules)
	}
}

func TestReadRulesEmpty(t *testing.T) {
	p := writeFile(t, "rules.txt", "# only comments\n\n")
	if _, err := readRules(p); err == nil {
		t.Fatal("empty ruleset accepted")
	}
	if _, err := readRules(filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunSequentialAndParallel(t *testing.T) {
	rules := writeFile(t, "rules.txt", "attack\ndefen[cs]e\n")
	input := writeFile(t, "input.bin",
		"an attack on the defense perimeter; the defence held; attack again "+
			"and padding padding padding padding padding padding padding padding")
	if err := run(rules, "", "", input, false, 1, true, false, 5, pap.EngineAuto, false); err != nil {
		t.Fatalf("sequential: %v", err)
	}
	if err := run(rules, "", "", input, true, 2, true, true, 5, pap.EngineAuto, false); err != nil {
		t.Fatalf("parallel: %v", err)
	}
	// -scored on an unscored ruleset: every match reports score 0.
	if err := run(rules, "", "", input, false, 1, true, false, 5, pap.EngineAuto, true); err != nil {
		t.Fatalf("sequential scored: %v", err)
	}
	if err := run(rules, "", "", input, true, 2, true, true, 5, pap.EngineAuto, true); err != nil {
		t.Fatalf("parallel scored: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("", "", "", "-", false, 1, false, true, 1, pap.EngineAuto, false); err == nil {
		t.Fatal("missing -rules accepted")
	}
	bad := writeFile(t, "rules.txt", "a(b\n")
	input := writeFile(t, "in.bin", "xyz")
	if err := run(bad, "", "", input, false, 1, false, true, 1, pap.EngineAuto, false); err == nil {
		t.Fatal("invalid pattern accepted")
	}
	good := writeFile(t, "ok.txt", "abc\n")
	if err := run(good, "", "", filepath.Join(t.TempDir(), "missing.bin"), false, 1, false, true, 1, pap.EngineAuto, false); err == nil {
		t.Fatal("missing input accepted")
	}
}

func TestRunFromANMLAndMNRL(t *testing.T) {
	anmlDoc := `<automata-network id="x">
  <state-transition-element id="a" symbol-set="[h]" start="all-input">
    <activate-on-match element="b"/>
  </state-transition-element>
  <state-transition-element id="b" symbol-set="[i]">
    <report-on-match reportcode="1"/>
  </state-transition-element>
</automata-network>`
	mnrlDoc := `{"id":"x","nodes":[
  {"id":"a","type":"hState","enable":"always","attributes":{"symbolSet":"[h]"},
   "outputConnections":[{"portId":"main","activateIds":["b"]}]},
  {"id":"b","type":"hState","attributes":{"symbolSet":"[i]"},"report":true,"reportId":1}]}`
	anmlPath := writeFile(t, "a.anml", anmlDoc)
	mnrlPath := writeFile(t, "a.mnrl", mnrlDoc)
	input := writeFile(t, "in.txt", "say hi and hi again")
	if err := run("", anmlPath, "", input, false, 1, false, true, 1, pap.EngineAuto, false); err != nil {
		t.Fatalf("anml: %v", err)
	}
	if err := run("", "", mnrlPath, input, false, 1, false, true, 1, pap.EngineAuto, false); err != nil {
		t.Fatalf("mnrl: %v", err)
	}
	// Mutually exclusive sources.
	if err := run(anmlPath, anmlPath, "", input, false, 1, false, true, 1, pap.EngineAuto, false); err == nil {
		t.Fatal("multiple sources accepted")
	}
}
