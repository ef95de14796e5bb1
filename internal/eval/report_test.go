package eval

import (
	"strings"
	"testing"
)

func TestWriteReport(t *testing.T) {
	res, err := RunCircuit(fastConfig("mini", 4))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteReport(&sb, res, true); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"circuit mini", "escape rate", "Alg_rev", "case"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Without per-case detail the table header must be absent.
	sb.Reset()
	if err := WriteReport(&sb, res, false); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "truthIn") {
		t.Errorf("per-case section present without perCase")
	}
}

func TestWriteTable1CSV(t *testing.T) {
	rows := []Table1Row{
		{Circuit: "s1196", K: 1, I: 5, II: 10, Rev: 15},
		{Circuit: "mini", K: 3, I: 1, II: 2, Rev: 3}, // no paper row
	}
	var sb strings.Builder
	if err := WriteTable1CSV(&sb, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "s1196,1,5,10,15,0,5,10") {
		t.Errorf("paper row wrong: %s", lines[1])
	}
	if !strings.HasSuffix(lines[2], ",,,") {
		t.Errorf("non-paper row should have empty paper cells: %s", lines[2])
	}
}
