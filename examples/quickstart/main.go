// Quickstart: verify a vulnerable PHP page, print the grouped error
// report with counterexample traces, and emit a secured copy.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"webssari"
)

const page = `<?php
$name = $_GET['name'];
if (!$name) {
    $name = $_COOKIE['name'];
}
$greeting = "Hello, " . $name . "!";
echo $greeting;
mysql_query("INSERT INTO visits (who) VALUES ('$name')");
echo "<p>Welcome back, $name</p>";
?>`

func main() {
	// 1. Verify: bounded model checking over the page's information flow.
	rep, err := webssari.Verify([]byte(page), "welcome.php")
	if err != nil {
		log.Fatalf("verify: %v", err)
	}
	fmt.Println(rep)
	fmt.Printf("TS would insert %d guards (one per symptom); BMC needs %d (one per cause).\n\n",
		rep.Symptoms, rep.Groups)

	// 2. Patch: wrap the minimal fixing set in runtime guards.
	patched, _, err := webssari.Patch([]byte(page), "welcome.php")
	if err != nil {
		log.Fatalf("patch: %v", err)
	}
	fmt.Println("--- secured PHP ---")
	fmt.Println(string(patched))

	// 3. Re-verify: the secured page is provably safe.
	rep2, err := webssari.Verify(patched, "welcome.php")
	if err != nil {
		log.Fatalf("re-verify: %v", err)
	}
	fmt.Printf("re-verification: safe=%v\n", rep2.Safe)
}
