// ILIAS Open Source (the paper's Figure 3): SQL injection through the
// HTTP referer header — developers who distrust $_GET routinely forget
// that the referrer, cookies, and other request metadata are equally
// attacker-controlled.
//
//	go run ./examples/iliasreferer
package main

import (
	"fmt"
	"log"

	"webssari"
	"webssari/internal/runtime"
)

const trackPHP = `<?php
$sql = "INSERT INTO track_temp VALUES('$HTTP_REFERER');";
mysql_query($sql);
?>`

func main() {
	rep, err := webssari.Verify([]byte(trackPHP), "track.php")
	if err != nil {
		log.Fatalf("verify: %v", err)
	}
	fmt.Println(rep)

	// Demonstrate the paper's exploit: a crafted referrer drops a table.
	payload := `');DROP TABLE ('users`
	in := runtime.New()
	in.Globals["HTTP_REFERER"] = runtime.Tainted(payload)
	if err := in.RunSource("track.php", []byte(trackPHP)); err != nil {
		log.Fatalf("run: %v", err)
	}
	fmt.Println("executed SQL with attacker referrer:")
	for _, q := range in.DB.Queries {
		fmt.Printf("  %s\n", q)
	}

	patched, _, err := webssari.Patch([]byte(trackPHP), "track.php")
	if err != nil {
		log.Fatalf("patch: %v", err)
	}
	fixed := runtime.New()
	fixed.Globals["HTTP_REFERER"] = runtime.Tainted(payload)
	if err := fixed.RunSource("track.php", patched); err != nil {
		log.Fatalf("run patched: %v", err)
	}
	fmt.Println("\nafter patching:")
	for _, q := range fixed.DB.Queries {
		fmt.Printf("  %s\n", q)
	}
	fmt.Printf("tainted sink events after patch: %d\n", len(fixed.TaintedEvents()))
}
