package webssari

import (
	"sync"
	"testing"
)

// TestDefaultConfigsShareBuiltinPrelude checks that configurations that
// do not write to the prelude share one built-in prelude, and that the
// options that do write take their own copy: a sink one configuration
// adds is not visible to a default configuration built later. The
// configurations are built at the same time, so the race detector sees
// any write to the shared prelude.
func TestDefaultConfigsShareBuiltinPrelude(t *testing.T) {
	a, err := buildConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildConfig([]Option{WithParallelism(2)})
	if err != nil {
		t.Fatal(err)
	}
	if a.pre != b.pre {
		t.Fatal("two default configurations hold different preludes")
	}

	const n = 8
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := []Option{WithSink("DoSQL", 1)}
			if i%2 == 0 {
				opts = nil
			}
			c, err := buildConfig(opts)
			if err != nil {
				t.Error(err)
				return
			}
			if _, ok := c.pre.SinkFor("dosql"); ok != (i%2 == 1) {
				t.Errorf("config %d: DoSQL is a sink: %v", i, ok)
			}
		}()
	}
	wg.Wait()

	later, err := buildConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := later.pre.SinkFor("dosql"); ok {
		t.Fatal("a WithSink configuration's sink is visible to a later default configuration")
	}
	if later.pre != a.pre {
		t.Fatal("a later default configuration holds a different prelude")
	}
}
