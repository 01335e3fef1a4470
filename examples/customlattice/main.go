// customlattice demonstrates that the verifier types data over Denning's
// lattice model (§3.1), not just the two-point taint lattice: a
// three-level confidentiality chain public < internal < secret, where
//
//   - publish() may only emit public data   (precondition: t < internal),
//   - intranet() may emit up to internal    (precondition: t < secret),
//   - declassify() lowers data to public    (a sanitizer in lattice terms).
//
// The same xBMC pipeline — one-hot lattice encoding and all — verifies
// information-flow policies over any chain the prelude declares; chains
// are the only lattices the prelude and policy formats accept.
//
//	go run ./examples/customlattice
package main

import (
	"fmt"
	"log"

	"webssari"
)

const policy = `
lattice chain public internal secret

var _GET secret
var EMPLOYEE_ID internal
source read_salary secret
source read_directory internal

sink publish internal *
sink intranet secret *

sanitizer declassify public
sanitizer websafe public
`

const appPHP = `<?php
$salary = read_salary($EMPLOYEE_ID);
$phone = read_directory($EMPLOYEE_ID);

// OK: internal data may flow to the intranet page.
intranet("ext: " . $phone);

// POLICY VIOLATION: secret salary data reaches the public site.
publish("salary: " . $salary);

// POLICY VIOLATION: even the intranet must not see raw request data
// joined with secrets... the join of internal and secret is secret.
intranet($phone . $salary);

// OK: declassification lowers the level explicitly.
publish(declassify($salary));
?>`

func main() {
	rep, err := webssari.Verify([]byte(appPHP), "payroll.php",
		webssari.WithPrelude(policy))
	if err != nil {
		log.Fatalf("verify: %v", err)
	}
	fmt.Println(rep)
	fmt.Printf("findings: %d (expected 2: the raw publish and the joined intranet write)\n",
		len(rep.Findings))

	patched, _, err := webssari.Patch([]byte(appPHP), "payroll.php",
		webssari.WithPrelude(policy))
	if err != nil {
		log.Fatalf("patch: %v", err)
	}
	fmt.Println("--- patched (guards declassify at the introductions) ---")
	fmt.Println(string(patched))

	rep2, err := webssari.Verify(patched, "payroll.php", webssari.WithPrelude(policy))
	if err != nil {
		log.Fatalf("re-verify: %v", err)
	}
	fmt.Printf("patched verifies safe: %v\n", rep2.Safe)
}
