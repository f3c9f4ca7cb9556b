package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseBody parses src as a function body and returns the body plus a
// lookup from a marker comment-free statement's source text to its node.
func parseBody(t *testing.T, body string) (*token.FileSet, *ast.BlockStmt) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", "package p\nfunc f() {\n"+body+"\n}", 0)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f.Decls[0].(*ast.FuncDecl).Body
}

// nodeAt returns the CFG node whose source line contains want.
func nodeAt(t *testing.T, fset *token.FileSet, g *Graph, src, want string) (blk *Block, idx int, n ast.Node) {
	t.Helper()
	lines := strings.Split(src, "\n")
	line := -1
	for i, l := range lines {
		if strings.Contains(l, want) {
			line = i + 3 // package + func header precede the body
			break
		}
	}
	if line < 0 {
		t.Fatalf("marker %q not in source", want)
	}
	for _, b := range g.Blocks {
		for i, x := range b.Nodes {
			if fset.Position(x.Pos()).Line == line {
				return b, i, x
			}
		}
	}
	t.Fatalf("no CFG node on line %d (%q)", line, want)
	return nil, -1, nil
}

func TestStraightLine(t *testing.T) {
	src := `x := 1
y := x
_ = y`
	fset, body := parseBody(t, src)
	g := New(body)
	b1, _, _ := nodeAt(t, fset, g, src, "x := 1")
	b2, _, _ := nodeAt(t, fset, g, src, "_ = y")
	if b1 != b2 {
		t.Errorf("straight-line statements split across blocks %d and %d", b1.Index, b2.Index)
	}
	if len(b1.Succs) != 1 || b1.Succs[0] != g.Exit {
		t.Errorf("entry block should flow straight to exit; succs = %v", b1.Succs)
	}
}

func TestIfElseJoin(t *testing.T) {
	src := `x := 1
if x > 0 {
	x = 2
} else {
	x = 3
}
_ = x`
	fset, body := parseBody(t, src)
	g := New(body)
	cond, _, _ := nodeAt(t, fset, g, src, "x > 0")
	thenB, _, _ := nodeAt(t, fset, g, src, "x = 2")
	elseB, _, _ := nodeAt(t, fset, g, src, "x = 3")
	join, _, _ := nodeAt(t, fset, g, src, "_ = x")
	if len(cond.Succs) != 2 {
		t.Fatalf("if head has %d successors, want 2", len(cond.Succs))
	}
	reach := g.ReachableFrom(cond)
	for name, b := range map[string]*Block{"then": thenB, "else": elseB, "join": join} {
		if !reach[b] {
			t.Errorf("%s block not reachable from the condition", name)
		}
	}
	if r := g.ReachableFrom(thenB); r[elseB] {
		t.Error("else branch reachable from then branch")
	}
	if r := g.ReachableFrom(thenB); !r[join] {
		t.Error("join not reachable from then branch")
	}
}

func TestLoopBackEdge(t *testing.T) {
	src := `sum := 0
for i := 0; i < 10; i++ {
	sum += i
}
_ = sum`
	fset, body := parseBody(t, src)
	g := New(body)
	bodyB, _, _ := nodeAt(t, fset, g, src, "sum += i")
	after, _, _ := nodeAt(t, fset, g, src, "_ = sum")
	reach := g.ReachableFrom(bodyB)
	if !reach[bodyB] {
		t.Error("loop body cannot reach itself through the back edge")
	}
	if !reach[after] {
		t.Error("code after the loop not reachable from the body")
	}
}

func TestEarlyReturn(t *testing.T) {
	src := `x := 1
if x > 0 {
	return
}
_ = x`
	fset, body := parseBody(t, src)
	g := New(body)
	ret, _, _ := nodeAt(t, fset, g, src, "return")
	after, _, _ := nodeAt(t, fset, g, src, "_ = x")
	if r := g.ReachableFrom(ret); r[after] {
		t.Error("statement after the if reachable from the return")
	}
	if len(ret.Succs) != 1 || ret.Succs[0] != g.Exit {
		t.Errorf("return should flow only to exit; succs = %v", ret.Succs)
	}
}

func TestSwitchBranches(t *testing.T) {
	src := `x := 1
switch x {
case 1:
	x = 10
case 2:
	x = 20
default:
	x = 30
}
_ = x`
	fset, body := parseBody(t, src)
	g := New(body)
	c1, _, _ := nodeAt(t, fset, g, src, "x = 10")
	c2, _, _ := nodeAt(t, fset, g, src, "x = 20")
	after, _, _ := nodeAt(t, fset, g, src, "_ = x")
	if r := g.ReachableFrom(c1); r[c2] {
		t.Error("sibling case reachable without fallthrough")
	}
	for name, b := range map[string]*Block{"case1": c1, "case2": c2} {
		if r := g.ReachableFrom(b); !r[after] {
			t.Errorf("join not reachable from %s", name)
		}
	}
}

func TestContainingNode(t *testing.T) {
	src := `x := 1
y := x + 2
_ = y`
	fset, body := parseBody(t, src)
	g := New(body)
	want, wi, wn := nodeAt(t, fset, g, src, "y := x + 2")
	// Position of the "+" inside the assignment's RHS.
	pos := wn.(*ast.AssignStmt).Rhs[0].(*ast.BinaryExpr).OpPos
	blk, idx, n := g.ContainingNode(pos)
	if blk != want || idx != wi || n != wn {
		t.Errorf("ContainingNode(+) = (%v, %d, %v), want (%v, %d, %v)", blk, idx, n, want, wi, wn)
	}
	if blk, _, n := g.ContainingNode(token.NoPos); blk != nil || n != nil {
		t.Error("ContainingNode(NoPos) should find nothing")
	}
}

func TestBlockOf(t *testing.T) {
	src := `x := 1
_ = x`
	fset, body := parseBody(t, src)
	g := New(body)
	blk, idx, n := nodeAt(t, fset, g, src, "x := 1")
	gotBlk, gotIdx := g.BlockOf(n)
	if gotBlk != blk || gotIdx != idx {
		t.Errorf("BlockOf = (%v, %d), want (%v, %d)", gotBlk, gotIdx, blk, idx)
	}
	if b, i := g.BlockOf(body); b != nil || i != -1 {
		t.Error("BlockOf(non-CFG node) should report not found")
	}
	_ = fset
}

func TestRangeKeyValue(t *testing.T) {
	src := `xs := []int{1}
for k,
	v := range
	xs {
	_, _ = k, v
}`
	fset, body := parseBody(t, src)
	g := New(body)
	key, ki, _ := nodeAt(t, fset, g, src, "for k,")
	val, vi, _ := nodeAt(t, fset, g, src, "v := range")
	use, ui, _ := nodeAt(t, fset, g, src, "_, _ = k, v")
	if key != use || val != use || !(ki < vi && vi < ui) {
		t.Errorf("key, value and body in blocks %d, %d, %d at %d, %d, %d; want the key, then the value, at the start of the body block", key.Index, val.Index, use.Index, ki, vi, ui)
	}
	if !g.ReachableFrom(use)[key] {
		t.Error("the key is not assigned again on the next iteration")
	}
}
