package main

import (
	"strings"
	"testing"
)

// TestParseFlags: a bad -site, -ttl or -feed is refused by parseFlags,
// before any site is generated or crawled. -smoke and -pipelined are not
// flags: the smoke is TestSmoke, and queries always run pipelined.
func TestParseFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		err  string // substring of the wanted error; "" wants success
	}{
		{nil, ""},
		{[]string{"-site", "bibliography", "-ttl", "0", "-feed", "poll"}, ""},
		{[]string{"-ttl", "90s", "-feed", "hook"}, ""},
		{[]string{"-site", "bogus"}, `unknown site "bogus"`},
		{[]string{"-ttl", "bogus"}, `bad -ttl "bogus"`},
		{[]string{"-feed", "bogus"}, `bad -feed "bogus"`},
		{[]string{"-smoke"}, "flag provided but not defined: -smoke"},
		{[]string{"-pipelined"}, "flag provided but not defined: -pipelined"},
	} {
		_, err := parseFlags(tc.args)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("parseFlags(%q): %v", tc.args, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("parseFlags(%q) = %v, want an error containing %q", tc.args, err, tc.err)
		}
	}
}
