package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"susc/internal/engine"
	"susc/internal/server"
)

// The tests below hold the usage line and README.md to the code: the
// rows of the README's command and flag reference are rendered from the
// command list (each command's own flag set, serve included), and the
// rows of its endpoint table from the mode table (each served mode's
// query flag set). A command, mode, flag or query parameter added,
// renamed or removed without the README fails here, and the failure
// prints every expected row, ready to paste.

// TestUsageListsAllCommands checks that the usage line names every
// command of the command list.
func TestUsageListsAllCommands(t *testing.T) {
	usage := run(nil)
	if usage == nil {
		t.Fatal("run with no args succeeded, want usage error")
	}
	for _, c := range commands {
		if !strings.Contains(usage.Error(), c.name) {
			t.Errorf("usage line %v omits %q", usage, c.name)
		}
	}
}

// TestCommandTableDocumented checks the README's command and flag
// reference: one row per command, with the flags the command reads.
func TestCommandTableDocumented(t *testing.T) {
	var rows []string
	for _, c := range commands {
		rows = append(rows, commandRow(c))
	}
	requireRows(t, rows)
}

// TestServeFlagsDocumented checks what the server reads: serve's own
// row in the command reference, one endpoint row per served mode with
// the query parameters it parses, and the /healthz and /stats
// endpoints.
func TestServeFlagsDocumented(t *testing.T) {
	var rows []string
	for _, c := range commands {
		if c.name == "serve" {
			rows = append(rows, commandRow(c))
		}
	}
	if rows == nil {
		t.Fatal("the command list has no serve command")
	}
	for _, m := range engine.Modes {
		if m.Served {
			rows = append(rows, fmt.Sprintf("| `POST /v1/%s` | %s | %s |", m.Name, m.Synopsis, flagList(server.QueryFlags(m), true)))
		}
	}
	readme := requireRows(t, rows)
	for _, endpoint := range []string{"GET /healthz", "GET /stats"} {
		if !strings.Contains(readme, endpoint) {
			t.Errorf("README.md does not document %s", endpoint)
		}
	}
}

// commandRow renders c's row of the README's command and flag reference.
func commandRow(c command) string {
	fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
	c.flags(fs)
	operand := " FILE"
	if c.noFile {
		operand = ""
	}
	return fmt.Sprintf("| `%s%s` | %s | %s |", c.name, operand, c.synopsis, flagList(fs, false))
}

// requireRows fails t unless README.md holds every row as a whole line,
// and returns the README's text.
func requireRows(t *testing.T, rows []string) string {
	t.Helper()
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	for _, row := range rows {
		if !strings.Contains(readme, row+"\n") {
			t.Errorf("README.md lacks the row\n%s\nThe table should hold these rows:\n%s",
				row, strings.Join(rows, "\n"))
			break
		}
	}
	return readme
}

// flagList renders a flag set as the README tables spell it: `-name ARG`
// for a command, `?name=ARG` for a query, with ARG the back-quoted
// placeholder of the flag's help. A boolean query parameter shows the
// value that flips its default.
func flagList(fs *flag.FlagSet, query bool) string {
	var parts []string
	fs.VisitAll(func(f *flag.Flag) {
		arg, _ := flag.UnquoteUsage(f)
		switch {
		case query && arg == "" && f.DefValue == "true":
			parts = append(parts, "`?"+f.Name+"=0`")
		case query && arg == "":
			parts = append(parts, "`?"+f.Name+"=1`")
		case query:
			parts = append(parts, "`?"+f.Name+"="+arg+"`")
		case arg == "":
			parts = append(parts, "`-"+f.Name+"`")
		default:
			parts = append(parts, "`-"+f.Name+" "+arg+"`")
		}
	})
	if parts == nil {
		return "*(none)*"
	}
	return strings.Join(parts, ", ")
}
