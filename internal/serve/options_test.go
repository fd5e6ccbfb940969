package serve

import (
	"errors"
	"testing"
	"time"
)

// TestOptionValidation: every invalid field must be rejected at New with a
// typed *OptionError naming the field — never deferred to the first request.
func TestOptionValidation(t *testing.T) {
	cases := []struct {
		field  string
		mutate func(*ServerOptions)
	}{
		{"CacheSize", func(o *ServerOptions) { o.CacheSize = 0 }},
		{"CacheSize", func(o *ServerOptions) { o.CacheSize = -4 }},
		{"MaxInFlight", func(o *ServerOptions) { o.MaxInFlight = 0 }},
		{"MaxInFlight", func(o *ServerOptions) { o.MaxInFlight = -1 }},
		{"QueueTimeout", func(o *ServerOptions) { o.QueueTimeout = -time.Second }},
		{"DefaultDeadline", func(o *ServerOptions) { o.DefaultDeadline = -time.Second }},
		// Regression: a default deadline beyond the cap used to validate,
		// then be silently capped on every request.
		{"DefaultDeadline", func(o *ServerOptions) {
			o.MaxDeadline = time.Second
			o.DefaultDeadline = 2 * time.Second
		}},
		{"MaxDeadline", func(o *ServerOptions) { o.MaxDeadline = -time.Second }},
		{"MaxTasks", func(o *ServerOptions) { o.MaxTasks = 0 }},
		{"MaxTotalNodes", func(o *ServerOptions) { o.MaxTotalNodes = -2 }},
		{"MaxBodyBytes", func(o *ServerOptions) { o.MaxBodyBytes = 0 }},
	}
	for _, tc := range cases {
		opts := DefaultOptions()
		tc.mutate(&opts)
		srv, err := New(opts)
		if srv != nil || err == nil {
			t.Fatalf("%s: New accepted invalid options (err=%v)", tc.field, err)
		}
		var oe *OptionError
		if !errors.As(err, &oe) {
			t.Fatalf("%s: error is %T, want *OptionError", tc.field, err)
		}
		if oe.Field != tc.field {
			t.Fatalf("OptionError names field %q, want %q", oe.Field, tc.field)
		}
		if oe.Error() == "" || oe.Reason == "" {
			t.Fatalf("%s: OptionError missing message/reason", tc.field)
		}
	}
}

func TestOptionValidationAccepts(t *testing.T) {
	// The defaults must be valid, and DisableCache lifts the CacheSize
	// requirement.
	srv, err := New(DefaultOptions())
	if err != nil {
		t.Fatalf("DefaultOptions rejected: %v", err)
	}
	srv.Close()

	opts := DefaultOptions()
	opts.CacheSize = 0
	opts.DisableCache = true
	srv, err = New(opts)
	if err != nil {
		t.Fatalf("DisableCache with CacheSize 0 rejected: %v", err)
	}
	if srv.cache != nil {
		t.Fatal("DisableCache server still built a cache")
	}
	srv.Close()

	// The deadline boundary cases: a default exactly at the cap, and an
	// uncapped server with any default, are both legal.
	opts = DefaultOptions()
	opts.MaxDeadline = time.Second
	opts.DefaultDeadline = time.Second
	srv, err = New(opts)
	if err != nil {
		t.Fatalf("DefaultDeadline == MaxDeadline rejected: %v", err)
	}
	srv.Close()

	opts = DefaultOptions()
	opts.DefaultDeadline = time.Hour // MaxDeadline 0 = uncapped
	srv, err = New(opts)
	if err != nil {
		t.Fatalf("DefaultDeadline with uncapped MaxDeadline rejected: %v", err)
	}
	srv.Close()
}
