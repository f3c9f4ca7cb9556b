package lint

import (
	"go/types"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint/callgraph"
)

// buildRepoGraph loads the whole repo from scratch and builds a call graph
// over it — no caching, so two calls exercise two fully independent
// load + type-check + build pipelines. It returns the loaded packages too.
func buildRepoGraph(t *testing.T) (*callgraph.Graph, []*Package) {
	t.Helper()
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	srcs := make([]*callgraph.Source, len(pkgs))
	for i, p := range pkgs {
		srcs[i] = &callgraph.Source{Path: p.Path, Files: p.Files, Info: p.Info, Types: p.Types}
	}
	return callgraph.Build(pkgs[0].Fset, srcs), pkgs
}

// TestCallGraphDeterministic pins the determinism guarantee the analyzers
// and CI depend on: two independent builds over the same source — separate
// loads, separate type-check universes, separate graph construction —
// serialize to byte-identical edge lists.
func TestCallGraphDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole repo twice")
	}
	ga, _ := buildRepoGraph(t)
	gb, _ := buildRepoGraph(t)
	a, b := strings.Join(ga.EdgeList(), "\n"), strings.Join(gb.EdgeList(), "\n")
	if a != b {
		al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
		if len(al) != len(bl) {
			t.Fatalf("edge lists differ in length: %d vs %d", len(al), len(bl))
		}
		for i := range al {
			if al[i] != bl[i] {
				t.Fatalf("edge lists diverge at line %d:\n  %s\n  %s", i, al[i], bl[i])
			}
		}
	}
}

// TestInterfaceResolutionPinned pins CHA resolution against a known
// interface in the repo: a call to TrustSource.Trust inside
// internal/detect must fan out to exactly the Trust methods of the
// program's implementers of detect.TrustSource, enumerated from the loaded
// packages' type info (detect.neutralTrust, *trust.Manager, the engine's
// *seriesTrust and the test-only reference's evidence map, among any
// others), as Interface-kind edges from one call site. A missing
// implementer means CHA went blind (analyzers would silently
// under-approximate); an extra one means the receiver static-type
// narrowing regressed toward the declaring-interface blowup.
func TestInterfaceResolutionPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole repo")
	}
	g, pkgs := buildRepoGraph(t)
	want := trustSourceImplementers(t, pkgs)
	if !slices.Contains(want, "(*repro/internal/trust.Manager).Trust") {
		t.Fatalf("the implementers of detect.TrustSource enumerate to %v, without *trust.Manager", want)
	}
	// Group Interface-kind .Trust edges out of internal/detect by call
	// site; at least one site must resolve to exactly the implementer set.
	bySite := make(map[string][]string)
	for _, n := range g.Funcs {
		if !strings.Contains(n.Name(), "repro/internal/detect.") {
			continue
		}
		for _, e := range n.Out {
			if e.Kind != callgraph.Interface || !strings.HasSuffix(e.Callee.Name(), ".Trust") {
				continue
			}
			site := g.Fset.Position(e.Site).String()
			bySite[site] = append(bySite[site], e.Callee.Name())
		}
	}
	if len(bySite) == 0 {
		t.Fatal("no Interface-kind TrustSource.Trust call sites found in internal/detect")
	}
	for site, callees := range bySite {
		sort.Strings(callees)
		if len(callees) != len(want) {
			t.Errorf("site %s: Trust resolves to %v, want %v", site, callees, want)
			continue
		}
		for i := range want {
			if callees[i] != want[i] {
				t.Errorf("site %s: Trust resolves to %v, want %v", site, callees, want)
				break
			}
		}
	}
}

// trustSourceImplementers returns the full names of the Trust methods of
// every named non-interface type T declared at package level in pkgs for
// which T or *T implements detect.TrustSource, sorted.
func trustSourceImplementers(t *testing.T, pkgs []*Package) []string {
	t.Helper()
	var iface *types.Interface
	for _, p := range pkgs {
		if obj := p.Types.Scope().Lookup("TrustSource"); p.Path == "repro/internal/detect" && obj != nil {
			iface, _ = obj.Type().Underlying().(*types.Interface)
		}
	}
	if iface == nil {
		t.Fatal("detect.TrustSource is not in the loaded program")
	}
	var names []string
	for _, p := range pkgs {
		for _, name := range p.Types.Scope().Names() {
			tn, ok := p.Types.Scope().Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			for _, typ := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
				if types.Implements(typ, iface) {
					names = append(names, types.NewMethodSet(typ).Lookup(nil, "Trust").Obj().(*types.Func).FullName())
					break
				}
			}
		}
	}
	sort.Strings(names)
	return names
}
