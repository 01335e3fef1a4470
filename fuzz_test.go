package webssari_test

import (
	"testing"
	"time"

	"webssari"
)

// FuzzVerify drives the whole pipeline on arbitrary bytes under tight
// resource limits. The invariants: no panic ever escapes (faults come
// back as *EngineError values), and any report produced is internally
// consistent — Safe and Incomplete are mutually exclusive, and the
// verdict matches the flags.
func FuzzVerify(f *testing.F) {
	f.Add([]byte(`<?php echo $_GET['x'];`))
	f.Add([]byte(`<?php $x = $_POST['a']; if ($x) { $x = htmlspecialchars($x); } echo $x;`))
	f.Add([]byte(`<?php include 'lib.php'; mysql_query("SELECT $q");`))
	f.Add([]byte(`<?php function f($a) { return $a; } echo f($_GET['x']);`))
	f.Add([]byte(`<?php while ($i < 3) { $i = $i + 1; echo htmlspecialchars($s); }`))
	f.Add([]byte(`<?php $x = ; } } if (`))
	f.Add([]byte("<?php\x00$x=$_GET[1];echo $x;"))
	f.Add([]byte(`no php here at all`))
	f.Add([]byte(`<?php $$v = $_GET['x']; echo $$v;`))
	f.Add([]byte(`<?php eval($_REQUEST['c']); exit;`))

	limits := webssari.WithResourceLimits(webssari.ResourceLimits{
		MaxStatements: 2000,
		MaxCNFVars:    50_000,
		MaxCNFClauses: 200_000,
	})
	f.Fuzz(func(t *testing.T, src []byte) {
		start := time.Now()
		rep, err := webssari.Verify(src, "fuzz.php", limits,
			webssari.WithDeadline(2*time.Second),
			webssari.WithSolverConfig(webssari.SolverConfig{MaxConflicts: 200}), webssari.WithMaxCounterexamples(16))
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("verification ran %v despite a 2s deadline: %q", elapsed, src)
		}
		if err != nil {
			return // structured failure is fine; a panic would have crashed
		}
		if rep == nil {
			t.Fatal("nil report with nil error")
		}
		if rep.Safe && rep.Incomplete {
			t.Fatalf("report both Safe and Incomplete: %+v", rep)
		}
		switch rep.Verdict {
		case webssari.VerdictSafe:
			if !rep.Safe || rep.Incomplete || len(rep.Findings) > 0 {
				t.Fatalf("safe verdict inconsistent: Safe=%v Incomplete=%v findings=%d",
					rep.Safe, rep.Incomplete, len(rep.Findings))
			}
		case webssari.VerdictUnsafe:
			if rep.Safe {
				t.Fatalf("unsafe verdict on a Safe report: %+v", rep)
			}
		case webssari.VerdictIncomplete:
			if !rep.Incomplete || len(rep.Limits) == 0 {
				t.Fatalf("incomplete verdict without causes: %+v", rep)
			}
		default:
			t.Fatalf("unknown verdict %q", rep.Verdict)
		}
	})
}
