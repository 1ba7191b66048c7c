package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Hierarchical span trees. The flat Recorder.Span sink answers "how
// long did phase X take in total"; the span tree answers "where under
// what": nested phases (nlp.solve → alm.outer → nlp.inner →
// engine.eval) record parent/child edges with self- vs
// cumulative-time attribution, so a solve's wall clock decomposes
// exactly onto the tree.
//
// The concurrency design follows the module's telemetry contract:
//
//   - A Stack is single-goroutine state — push/pop touch only the
//     goroutine's own preallocated frames, so workers never contend on
//     the way in or out of a scope. The solver's goroutine and each
//     Monte Carlo shard own one.
//   - Tree nodes are shared aggregation points: counts and times are
//     atomics, and child lookup on the hot path is a lock-free
//     sync.Map read. Mutation (first sighting of a child name) takes
//     the tree mutex — a cold path that runs once per distinct edge.
//
// Wall-clock data stays in the metrics sinks: tree timings never
// enter the JSONL event stream, so traces remain byte-identical for
// every worker count with span trees enabled.
//
// A popped scope also lands in the owning Metrics' span histogram
// under the node's full slash-joined path ("nlp.solve/alm.outer"), so
// tree phases get p50/p90/p99/max like any flat span, and appear in
// the Prometheus exposition.

// TreeProvider is the optional Recorder capability behind NewStack:
// sinks that aggregate a span tree return it; combinators forward to
// the first capable sink.
type TreeProvider interface {
	SpanTree() *Tree
}

// Tree is the shared aggregation structure. The zero value is not
// usable; trees are created by NewMetrics (every Metrics owns one) or
// NewTree.
type Tree struct {
	mu   sync.Mutex // guards node creation
	root *TreeNode
	m    *Metrics // optional: popped scopes feed per-path histograms
}

// NewTree returns an empty span tree unattached to a Metrics sink.
func NewTree() *Tree {
	t := &Tree{}
	t.root = &TreeNode{}
	return t
}

// TreeNode is one aggregated scope: every Push/Pop pair of the same
// name under the same parent folds into one node.
type TreeNode struct {
	name string
	path string // slash-joined from the root, "" for the root

	children sync.Map // string -> *TreeNode; lock-free hot lookup

	count  atomic.Int64
	cumNS  atomic.Int64 // wall time inside the scope, children included
	selfNS atomic.Int64 // cum minus time attributed to child scopes

	sv *spanVar // per-path histogram cell, nil without a Metrics
}

// Name returns the node's scope name ("alm.outer").
func (n *TreeNode) Name() string { return n.name }

// Path returns the slash-joined path from the root ("nlp.solve/alm.outer").
func (n *TreeNode) Path() string { return n.path }

// Count returns how many scopes folded into the node.
func (n *TreeNode) Count() int64 { return n.count.Load() }

// Cum returns the cumulative wall time (children included).
func (n *TreeNode) Cum() time.Duration { return time.Duration(n.cumNS.Load()) }

// Self returns the self time (children excluded).
func (n *TreeNode) Self() time.Duration { return time.Duration(n.selfNS.Load()) }

// child returns the named child, creating it on first sighting.
func (t *Tree) child(parent *TreeNode, name string) *TreeNode {
	if c, ok := parent.children.Load(name); ok {
		return c.(*TreeNode)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := parent.children.Load(name); ok {
		return c.(*TreeNode)
	}
	path := name
	if parent.path != "" {
		path = parent.path + "/" + name
	}
	c := &TreeNode{name: name, path: path}
	if t.m != nil {
		// Tree cells live under a "tree/" prefix in the flat span
		// namespace so a root-level scope ("nlp.solve") never collides
		// with the flat span of the same name.
		c.sv = t.m.span("tree/" + path)
	}
	parent.children.Store(name, c)
	return c
}

// Walk visits every node below the root depth-first, siblings in
// lexical name order, calling fn with the node and its depth (root
// children are depth 0). Aggregation may race with Walk; the visit
// sees each counter's value at load time.
func (t *Tree) Walk(fn func(n *TreeNode, depth int)) {
	walkNode(t.root, 0, fn)
}

func walkNode(n *TreeNode, depth int, fn func(*TreeNode, int)) {
	var names []string
	n.children.Range(func(k, _ any) bool {
		names = append(names, k.(string))
		return true
	})
	sort.Strings(names)
	for _, name := range names {
		c, _ := n.children.Load(name)
		node := c.(*TreeNode)
		fn(node, depth)
		walkNode(node, depth+1, fn)
	}
}

// Empty reports whether the tree has aggregated no scopes.
func (t *Tree) Empty() bool {
	empty := true
	t.root.children.Range(func(_, _ any) bool {
		empty = false
		return false
	})
	return empty
}

// AddAt folds an externally timed phase into the node at path,
// creating intermediate nodes as needed — the publish-time hook for
// subsystems that aggregate their own timings (the NLP element engine
// folds its per-mode dispatch totals under nlp.solve/engine this
// way). The duration counts as self time: callers attribute
// exclusive, already-decomposed figures.
func (t *Tree) AddAt(d time.Duration, count int64, path ...string) {
	n := t.root
	for _, name := range path {
		n = t.child(n, name)
	}
	if n == t.root {
		return
	}
	ns := d.Nanoseconds()
	n.count.Add(count)
	n.cumNS.Add(ns)
	n.selfNS.Add(ns)
	if n.sv != nil {
		n.sv.record(d)
	}
}

// WriteJSONL renders the tree as JSON lines, one node per line in
// Walk (depth-first, lexical) order:
//
//	{"span":"nlp.solve/alm.outer","count":12,"ns":48210031,"self_ns":901221}
//
// This is the span-tree sidecar format the CLIs write with -spans and
// tracetool reads with its -spans flag: wall-clock data travels in
// its own file, never in the deterministic event trace.
func (t *Tree) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var err error
	t.Walk(func(n *TreeNode, _ int) {
		if err != nil {
			return
		}
		_, err = fmt.Fprintf(bw, "{\"span\":%q,\"count\":%d,\"ns\":%d,\"self_ns\":%d}\n",
			n.Path(), n.Count(), n.Cum().Nanoseconds(), n.Self().Nanoseconds())
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// WriteFile writes the WriteJSONL rendering to path, creating parent
// directories as needed (mirroring CreateTrace).
func (t *Tree) WriteFile(path string) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("telemetry: spans %s: %w", path, err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("telemetry: spans %s: %w", path, err)
	}
	if err := t.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stackFrame is one live scope on a Stack.
type stackFrame struct {
	node    *TreeNode
	start   time.Time
	childNS int64
}

// Stack is one goroutine's scope stack. It must not be shared between
// goroutines; create one per worker (NewStack/StackAt). The nil Stack
// is a valid no-op — Push and Pop on it cost one branch — so disabled
// telemetry needs no call-site guards beyond the usual rec == nil
// check.
type Stack struct {
	tree   *Tree
	base   *TreeNode // the stack's root scope
	frames []stackFrame
}

// TreeOf returns rec's span tree, or nil when rec is nil or has no
// tree sink.
func TreeOf(rec Recorder) *Tree {
	if tp, ok := rec.(TreeProvider); ok {
		return tp.SpanTree()
	}
	return nil
}

// NewStack returns a scope stack over rec's span tree, rooted at the
// tree root, or nil when rec is nil or has no tree sink (nil is the
// allocation-free disabled stack).
func NewStack(rec Recorder) *Stack {
	if t := TreeOf(rec); t != nil {
		return t.NewStack()
	}
	return nil
}

// StackAt is NewStack rooted under path — worker goroutines use it to
// attribute their time under the coordinator's logical phase
// ("mc.run") without sharing the coordinator's stack.
func StackAt(rec Recorder, path ...string) *Stack {
	if t := TreeOf(rec); t != nil {
		return t.StackAt(path...)
	}
	return nil
}

// NewStack returns a scope stack rooted at the tree root.
func (t *Tree) NewStack() *Stack {
	return &Stack{tree: t, base: t.root, frames: make([]stackFrame, 0, 16)}
}

// StackAt returns a scope stack rooted at the node named by path,
// creating intermediate nodes as needed.
func (t *Tree) StackAt(path ...string) *Stack {
	n := t.root
	for _, name := range path {
		n = t.child(n, name)
	}
	return &Stack{tree: t, base: n, frames: make([]stackFrame, 0, 16)}
}

// Push opens a scope named name under the current scope (or the
// stack's root when empty). Allocation-free once the edge exists.
func (s *Stack) Push(name string) {
	if s == nil {
		return
	}
	parent := s.base
	if len(s.frames) > 0 {
		parent = s.frames[len(s.frames)-1].node
	}
	node := s.tree.child(parent, name)
	s.frames = append(s.frames, stackFrame{node: node, start: time.Now()})
}

// Pop closes the innermost scope, folding its wall time into the
// node: cumulative gets the full elapsed time, self gets the elapsed
// time minus what child scopes consumed, and the per-path histogram
// records the cumulative duration. Pop on an empty or nil stack is a
// no-op.
func (s *Stack) Pop() {
	if s == nil || len(s.frames) == 0 {
		return
	}
	f := &s.frames[len(s.frames)-1]
	d := time.Since(f.start)
	ns := d.Nanoseconds()
	n := f.node
	n.count.Add(1)
	n.cumNS.Add(ns)
	n.selfNS.Add(ns - f.childNS)
	if n.sv != nil {
		n.sv.record(d)
	}
	s.frames = s.frames[:len(s.frames)-1]
	if len(s.frames) > 0 {
		s.frames[len(s.frames)-1].childNS += ns
	}
}

// Depth returns the number of open scopes.
func (s *Stack) Depth() int {
	if s == nil {
		return 0
	}
	return len(s.frames)
}

// PopTo pops scopes until at most depth remain — the loop-top idiom
// for scopes whose body exits through continue/break paths:
//
//	for ... {
//		stack.PopTo(1) // close the previous iteration's scope
//		stack.Push("alm.outer")
//		...
//	}
//	stack.PopTo(1)
func (s *Stack) PopTo(depth int) {
	for s.Depth() > depth {
		s.Pop()
	}
}
