// Package cfg builds a small intraprocedural control-flow graph over a
// function body, using only the standard library. It exists for the
// dataflow questions the lint analyzers ask — "is this guarded-field access
// definitely outside the lock?" (lockheld), "may a state mutex be held at
// this call?" (lockorder), "is this durability error ever read on any path
// after the assignment?" (durataint) — questions a lexical scan answers
// wrongly the moment an early return or a loop back-edge is involved.
//
// The graph is statement-granular: each basic block holds the statements
// (and branch-condition expressions) that execute in order, and Succs lists
// the blocks control can reach next. Defer statements appear as ordinary
// nodes at their registration point; their calls run at function return,
// which analyzers account for themselves. Goto is handled conservatively
// (the block simply ends; no edge is added for the jump target), panics and
// runtime exits are ignored.
package cfg

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: Nodes execute in order, then control moves to
// one of Succs. A block with no successors ends the function (it reaches
// the exit).
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
}

// Graph is the control-flow graph of one function body. Blocks[0] is the
// entry block; Exit is a distinguished empty block every return and
// falling-off path reaches.
type Graph struct {
	Blocks []*Block
	Exit   *Block

	nodeBlock map[ast.Node]*Block
}

// New builds the control-flow graph of body.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{nodeBlock: make(map[ast.Node]*Block)}
	b := &builder{g: g}
	entry := b.newBlock()
	b.g.Exit = b.newBlock()
	cur := b.stmts(entry, body.List)
	b.edge(cur, b.g.Exit)
	// Entry must stay Blocks[0]; newBlock appended it first.
	_ = entry
	return g
}

// BlockOf returns the block holding node n (a statement or a
// branch-condition expression recorded by the builder) and its index within
// the block, or (nil, -1) when n is not a CFG node.
func (g *Graph) BlockOf(n ast.Node) (*Block, int) {
	blk, ok := g.nodeBlock[n]
	if !ok {
		return nil, -1
	}
	for i, x := range blk.Nodes {
		if x == n {
			return blk, i
		}
	}
	return nil, -1
}

// ReachableFrom returns every block reachable from b by one or more
// successor edges. b itself is included only if it sits on a cycle.
func (g *Graph) ReachableFrom(b *Block) map[*Block]bool {
	seen := make(map[*Block]bool)
	var walk func(*Block)
	walk = func(x *Block) {
		for _, s := range x.Succs {
			if !seen[s] {
				seen[s] = true
				walk(s)
			}
		}
	}
	walk(b)
	return seen
}

// ContainingNode returns the CFG node of block blk (searching all blocks)
// whose source range covers pos, plus its block and index. CFG nodes are
// statements, so every expression position in the body maps to exactly one
// node unless it sits in dead code the builder dropped.
func (g *Graph) ContainingNode(pos token.Pos) (*Block, int, ast.Node) {
	for _, blk := range g.Blocks {
		for i, n := range blk.Nodes {
			if n.Pos() <= pos && pos < n.End() {
				return blk, i, n
			}
		}
	}
	return nil, -1, nil
}

type loopFrame struct {
	label      string
	breakTo    *Block
	continueTo *Block
}

type switchFrame struct {
	label   string
	breakTo *Block
}

type builder struct {
	g        *Graph
	loops    []loopFrame
	switches []switchFrame
	// nextLabel is the pending label for the next loop/switch statement.
	nextLabel string
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// add appends a node to the current block (creating one if control already
// left, i.e. dead code after return/branch).
func (b *builder) add(cur *Block, n ast.Node) *Block {
	if cur == nil {
		cur = b.newBlock() // dead code gets its own unreachable block
	}
	cur.Nodes = append(cur.Nodes, n)
	b.g.nodeBlock[n] = cur
	return cur
}

func (b *builder) stmts(cur *Block, list []ast.Stmt) *Block {
	for _, s := range list {
		cur = b.stmt(cur, s)
	}
	return cur
}

// stmt extends the graph with one statement and returns the block where
// control continues (nil when the statement never falls through).
func (b *builder) stmt(cur *Block, s ast.Stmt) *Block {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmts(cur, s.List)

	case *ast.LabeledStmt:
		switch s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			b.nextLabel = s.Label.Name
			return b.stmt(cur, s.Stmt)
		}
		return b.stmt(cur, s.Stmt)

	case *ast.IfStmt:
		if s.Init != nil {
			cur = b.add(cur, s.Init)
		}
		cur = b.add(cur, s.Cond)
		join := b.newBlock()
		thenEntry := b.newBlock()
		b.edge(cur, thenEntry)
		thenExit := b.stmts(thenEntry, s.Body.List)
		b.edge(thenExit, join)
		if s.Else != nil {
			elseEntry := b.newBlock()
			b.edge(cur, elseEntry)
			elseExit := b.stmt(elseEntry, s.Else)
			b.edge(elseExit, join)
		} else {
			b.edge(cur, join)
		}
		return join

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			cur = b.add(cur, s.Init)
		}
		head := b.newBlock()
		b.edge(cur, head)
		if s.Cond != nil {
			b.add(head, s.Cond)
		}
		exit := b.newBlock()
		post := b.newBlock()
		body := b.newBlock()
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, exit) // condition false
		}
		b.loops = append(b.loops, loopFrame{label: label, breakTo: exit, continueTo: post})
		bodyExit := b.stmts(body, s.Body.List)
		b.loops = b.loops[:len(b.loops)-1]
		b.edge(bodyExit, post)
		if s.Post != nil {
			b.add(post, s.Post)
		}
		b.edge(post, head)
		return exit

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		cur = b.add(cur, s.X)
		b.edge(cur, head)
		exit := b.newBlock()
		body := b.newBlock()
		b.edge(head, body)
		b.edge(head, exit) // range exhausted
		// Each iteration assigns the key and value on entering the body.
		for _, kv := range []ast.Expr{s.Key, s.Value} {
			if kv != nil {
				body = b.add(body, kv)
			}
		}
		b.loops = append(b.loops, loopFrame{label: label, breakTo: exit, continueTo: head})
		bodyExit := b.stmts(body, s.Body.List)
		b.loops = b.loops[:len(b.loops)-1]
		b.edge(bodyExit, head)
		return exit

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return b.switchLike(cur, s)

	case *ast.ReturnStmt:
		cur = b.add(cur, s)
		b.edge(cur, b.g.Exit)
		return nil

	case *ast.BranchStmt:
		cur = b.add(cur, s)
		switch s.Tok {
		case token.BREAK:
			if t := b.breakTarget(s.Label); t != nil {
				b.edge(cur, t)
			} else {
				b.edge(cur, b.g.Exit) // malformed/labelled-goto-ish: stay conservative
			}
			return nil
		case token.CONTINUE:
			if t := b.continueTarget(s.Label); t != nil {
				b.edge(cur, t)
			} else {
				b.edge(cur, b.g.Exit)
			}
			return nil
		case token.GOTO:
			// No edge for the jump target: conservative, documented.
			return nil
		case token.FALLTHROUGH:
			// Handled by switchLike via the fallthrough edge; the statement
			// itself ends the block.
			return cur
		}
		return cur

	default:
		// ExprStmt, AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt,
		// DeferStmt, EmptyStmt — straight-line nodes.
		return b.add(cur, s)
	}
}

// switchLike lowers switch, type-switch, and select statements: each clause
// body is a block branching from the head, all falling through to one join.
func (b *builder) switchLike(cur *Block, s ast.Stmt) *Block {
	label := b.takeLabel()
	var clauses []ast.Stmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			cur = b.add(cur, s.Init)
		}
		if s.Tag != nil {
			cur = b.add(cur, s.Tag)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			cur = b.add(cur, s.Init)
		}
		cur = b.add(cur, s.Assign)
		clauses = s.Body.List
	case *ast.SelectStmt:
		if cur == nil {
			cur = b.newBlock()
		}
		clauses = s.Body.List
	}
	if cur == nil {
		cur = b.newBlock()
	}
	join := b.newBlock()
	b.switches = append(b.switches, switchFrame{label: label, breakTo: join})

	// Pre-create clause entry blocks so fallthrough can target the next one.
	entries := make([]*Block, len(clauses))
	for i := range clauses {
		entries[i] = b.newBlock()
		b.edge(cur, entries[i])
	}
	for i, c := range clauses {
		var body []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			blk := entries[i]
			for _, e := range c.List {
				blk = b.add(blk, e)
			}
			body = c.Body
			entries[i] = blk
		case *ast.CommClause:
			blk := entries[i]
			if c.Comm != nil {
				blk = b.add(blk, c.Comm)
			}
			body = c.Body
			entries[i] = blk
			hasDefault = hasDefault || c.Comm == nil
		}
		exit := b.stmts(entries[i], body)
		// An explicit fallthrough as the last statement jumps into the next
		// clause body; otherwise the clause exits to the join.
		if ft := lastFallthrough(body); ft != nil && i+1 < len(clauses) {
			b.edge(exit, entries[i+1])
		} else {
			b.edge(exit, join)
		}
	}
	if !hasDefault {
		// Without a default the switch can match nothing (or, for select
		// without default, block then take some clause; the edge is
		// conservative either way).
		b.edge(cur, join)
	}
	b.switches = b.switches[:len(b.switches)-1]
	return join
}

func lastFallthrough(body []ast.Stmt) *ast.BranchStmt {
	if len(body) == 0 {
		return nil
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	if ok && br.Tok == token.FALLTHROUGH {
		return br
	}
	return nil
}

func (b *builder) takeLabel() string {
	l := b.nextLabel
	b.nextLabel = ""
	return l
}

func (b *builder) breakTarget(label *ast.Ident) *Block {
	if label == nil {
		return b.innermostBreak()
	}
	for i := len(b.loops) - 1; i >= 0; i-- {
		if b.loops[i].label == label.Name {
			return b.loops[i].breakTo
		}
	}
	for i := len(b.switches) - 1; i >= 0; i-- {
		if b.switches[i].label == label.Name {
			return b.switches[i].breakTo
		}
	}
	return nil
}

// innermostBreak returns the break target of the innermost enclosing
// for/switch/select. Loop and switch frames are pushed strictly nested and
// each break-target block is created at push time, so the innermost frame
// is whichever stack's top holds the higher block index.
func (b *builder) innermostBreak() *Block {
	var best *Block
	if len(b.loops) > 0 {
		best = b.loops[len(b.loops)-1].breakTo
	}
	if len(b.switches) > 0 {
		st := b.switches[len(b.switches)-1].breakTo
		if best == nil || st.Index > best.Index {
			best = st
		}
	}
	return best
}

func (b *builder) continueTarget(label *ast.Ident) *Block {
	if label == nil {
		if len(b.loops) == 0 {
			return nil
		}
		return b.loops[len(b.loops)-1].continueTo
	}
	for i := len(b.loops) - 1; i >= 0; i-- {
		if b.loops[i].label == label.Name {
			return b.loops[i].continueTo
		}
	}
	return nil
}
