package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
)

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestRunRejectsBadOptions: option validation happens at startup, with the
// typed error naming the offending field, before any socket is opened.
func TestRunRejectsBadOptions(t *testing.T) {
	cases := []struct {
		args  []string
		field string
	}{
		{[]string{"-cache-size", "0"}, "CacheSize"},
		{[]string{"-cache-size", "-5"}, "CacheSize"},
		{[]string{"-max-inflight", "0"}, "MaxInFlight"},
		{[]string{"-queue-timeout", "-1s"}, "QueueTimeout"},
		{[]string{"-default-deadline", "-1s"}, "DefaultDeadline"},
		{[]string{"-max-deadline", "-1s"}, "MaxDeadline"},
	}
	for _, tc := range cases {
		err := run(tc.args)
		if err == nil {
			t.Fatalf("%v: accepted", tc.args)
		}
		var oe *serve.OptionError
		if !errors.As(err, &oe) {
			t.Fatalf("%v: error %T %v, want *serve.OptionError", tc.args, err, err)
		}
		if oe.Field != tc.field {
			t.Fatalf("%v: error names %s, want %s", tc.args, oe.Field, tc.field)
		}
	}
}

func TestRunDisableCacheLiftsCacheSize(t *testing.T) {
	// -disable-cache with -cache-size 0 is a valid combination; it must get
	// past option validation (and then fail on the unusable address rather
	// than on the options).
	err := run([]string{"-disable-cache", "-cache-size", "0", "-addr", "256.0.0.1:0"})
	var oe *serve.OptionError
	if err == nil || errors.As(err, &oe) {
		t.Fatalf("want a listen error, got %v", err)
	}
	if !strings.Contains(err.Error(), "listen") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// sweetSpotBody is a 3-task min-max request whose tasks may only take
// power-of-two node counts, the shape whose optimal allocation stays
// constant across wide budget ranges. seed makes every body a distinct
// instance.
func sweetSpotBody(seed int) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"totalNodes": %d, "tasks": [`, 300+seed)
	for i := 0; i < 3; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"params": {"a": %d, "b": 0.001, "c": 1.1, "d": %d}, "allowed": [1, 2, 4, 8, 16, 32, 64, 128, 256]}`,
			1000+i*2500+seed*97, 1+i)
	}
	b.WriteString("]}")
	return b.String()
}

// TestOneSolvePerMiss: under hslbd's shipped options, distinct
// proven-optimal min-max misses on every route cost one solve each, so
// statz solves equals misses. One solve slot (-max-inflight 1) means any
// work a miss left running after its answer would hold the slot, and be
// counted, before the next miss is admitted.
func TestOneSolvePerMiss(t *testing.T) {
	_, opts, err := parseFlags([]string{"-max-inflight", "1"})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const perRoute = 4
	for r, route := range []string{"solve", "minlp", "parametric"} {
		for i := 0; i < perRoute; i++ {
			resp, err := http.Post(ts.URL+"/v1/"+route, "application/json",
				strings.NewReader(sweetSpotBody(r*perRoute+i)))
			if err != nil {
				t.Fatal(err)
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			var body struct {
				Solution struct {
					Status string `json:"status"`
				} `json:"solution"`
			}
			if resp.StatusCode != 200 || json.Unmarshal(data, &body) != nil ||
				body.Solution.Status != "optimal" || resp.Header.Get("X-HSLB-Cache") != "miss" {
				t.Fatalf("%s #%d: status %d cache %q body %s, want an optimal miss",
					route, i, resp.StatusCode, resp.Header.Get("X-HSLB-Cache"), data)
			}
		}
	}
	st := srv.Stats()
	if st.Misses != 3*perRoute || st.Solves != st.Misses {
		t.Fatalf("statz after %d distinct misses: solves %d, misses %d (%+v)", 3*perRoute, st.Solves, st.Misses, st)
	}
}
