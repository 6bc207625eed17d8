// Command c2vet is the repository's domain-aware static-analysis suite:
// a multichecker over the twelve analyzers under internal/analysis that
// encode C²-Bound's cross-cutting invariants — floating-point hygiene
// (floatguard), error-chain wrapping and no library panics (errwrap),
// the cancellation contract (ctxflow), request-scoped contexts in HTTP
// handlers (httpctx), context-less outbound HTTP calls in library code
// (outboundctx), no blind time.Sleep in cancellable or serving-layer
// code (ctxsleep), engine-routed evaluation (enginepath), paired
// batch/scalar evaluator methods (batchpar), documented parameter
// domains (paramdomain), determinism of evaluation and checkpoint paths
// (detguard), atomic-field and lock-copy hygiene (atomicguard) and
// goroutine termination (leakcheck). detguard and atomicguard are
// interprocedural: facts exported while analysing a package are consumed
// when its dependents are analysed, so packages are processed in
// dependency order.
//
// Usage:
//
//	c2vet [-disable name[,name]] [-list] [-json] [-suppressions] [-dir d] [packages]
//
// Packages default to ./..., findings print as file:line:col: [analyzer]
// message sorted by position, and the exit status is 1 when any finding
// survives the `//lint:allow <analyzer> <reason>` suppressions and 2 when
// the packages fail to load or type-check. -json emits the same findings
// as a machine-readable report (one JSON object, stable field and finding
// order) for CI artifacts. -suppressions audits the allow comments
// themselves: it lists directives that suppress nothing so dead ones can
// be removed, then prints the number of live ones on a last line of the
// form "N live //lint:allow directive(s)". `make lint` (and CI) run it
// alongside go vet.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/atomicguard"
	"repro/internal/analysis/batchpar"
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/ctxsleep"
	"repro/internal/analysis/detguard"
	"repro/internal/analysis/enginepath"
	"repro/internal/analysis/errwrap"
	"repro/internal/analysis/floatguard"
	"repro/internal/analysis/httpctx"
	"repro/internal/analysis/leakcheck"
	"repro/internal/analysis/outboundctx"
	"repro/internal/analysis/paramdomain"
)

// suite is every analyzer c2vet runs, in output order.
var suite = []*analysis.Analyzer{
	ctxflow.Analyzer,
	enginepath.Analyzer,
	batchpar.Analyzer,
	httpctx.Analyzer,
	outboundctx.Analyzer,
	ctxsleep.Analyzer,
	errwrap.Analyzer,
	floatguard.Analyzer,
	paramdomain.Analyzer,
	detguard.Analyzer,
	atomicguard.Analyzer,
	leakcheck.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind an exit code: 0 clean, 1 findings (or
// stale suppressions in -suppressions mode), 2 load/type error or bad
// usage. Tests drive it directly.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("c2vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	disable := fs.String("disable", "", "comma-separated analyzer names to skip")
	list := fs.Bool("list", false, "list the analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON report on stdout")
	suppressions := fs.Bool("suppressions", false, "audit //lint:allow comments instead of reporting findings")
	dir := fs.String("dir", ".", "module directory to load packages from")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	skip := map[string]bool{}
	for _, name := range strings.Split(*disable, ",") {
		if name != "" {
			skip[name] = true
		}
	}
	var active []*analysis.Analyzer
	for _, a := range suite {
		if !skip[a.Name] {
			active = append(active, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	moduleDir := *dir
	if moduleDir == "." {
		wd, err := os.Getwd()
		if err != nil {
			fmt.Fprintln(stderr, "c2vet:", err)
			return 2
		}
		moduleDir = wd
	}
	pkgs, err := analysis.Load(moduleDir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "c2vet:", err)
		return 2
	}
	diags, audit, err := analysis.Run(active, pkgs)
	if err != nil {
		fmt.Fprintln(stderr, "c2vet:", err)
		return 2
	}

	if *suppressions {
		analysis.PrintStale(stdout, pkgs, audit.Stale)
		fmt.Fprintf(stdout, "%d live //lint:allow directive(s)\n", audit.Live)
		if len(audit.Stale) > 0 {
			fmt.Fprintf(stderr, "c2vet: %d stale suppression(s)\n", len(audit.Stale))
			return 1
		}
		return 0
	}

	if *jsonOut {
		if len(pkgs) > 0 {
			report := analysis.NewReport(moduleDir, pkgs[0].Fset, diags)
			if err := report.Write(stdout); err != nil {
				fmt.Fprintln(stderr, "c2vet:", err)
				return 2
			}
		}
	} else {
		analysis.Print(stdout, pkgs, diags)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "c2vet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
