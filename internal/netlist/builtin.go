package netlist

// Fig2Example returns the four-gate circuit of the paper's Section 5
// (Figure 2): gates A, B, C driven by primary inputs a, b, c, all
// three feeding gate D; the primary outputs are C and D, exactly as
// the output maximum in eq 18a is taken over T_C and T_D, and D's
// input maximum in eq 18b runs over T_A, T_B and T_C.
func Fig2Example() *Circuit {
	c := New("fig2")
	mustAddInput(c, "a")
	mustAddInput(c, "b")
	mustAddInput(c, "c")
	mustAddGate(c, "A", "nand2", "a", "b")
	mustAddGate(c, "B", "nand2", "b", "c")
	mustAddGate(c, "C", "nand2", "a", "c")
	mustAddGate(c, "D", "nand3", "A", "B", "C")
	mustMarkOutput(c, "C")
	mustMarkOutput(c, "D")
	return c
}

// Tree7 returns the seven-NAND balanced tree of the paper's Figure 3
// (Tables 2 and 3): four first-level gates A, B, D, E each driven by
// two primary inputs, second-level gates C (from A, B) and F (from
// D, E), and the output gate G (from C, F). The gate naming follows
// Table 3 so the per-gate speed factors line up with the paper's rows.
func Tree7() *Circuit {
	c := New("tree7")
	for _, in := range []string{"i0", "i1", "i2", "i3", "i4", "i5", "i6", "i7"} {
		mustAddInput(c, in)
	}
	mustAddGate(c, "A", "nand2", "i0", "i1")
	mustAddGate(c, "B", "nand2", "i2", "i3")
	mustAddGate(c, "D", "nand2", "i4", "i5")
	mustAddGate(c, "E", "nand2", "i6", "i7")
	mustAddGate(c, "C", "nand2", "A", "B")
	mustAddGate(c, "F", "nand2", "D", "E")
	mustAddGate(c, "G", "nand2", "C", "F")
	mustMarkOutput(c, "G")
	return c
}

// Chain returns a linear chain of n inverters, a minimal workload used
// by tests and microbenchmarks.
func Chain(n int) *Circuit {
	c := New("chain")
	mustAddInput(c, "in")
	prev := "in"
	for i := 0; i < n; i++ {
		name := gateName(i)
		mustAddGate(c, name, "inv", prev)
		prev = name
	}
	mustMarkOutput(c, prev)
	return c
}

// BalancedTree returns a complete binary tree of NAND2 gates with the
// given number of levels (levels >= 1), 2^levels primary inputs and a
// single output. Tree7 is BalancedTree(3) with the paper's naming.
func BalancedTree(levels int) *Circuit {
	if levels < 1 {
		panic("netlist: BalancedTree needs at least one level")
	}
	c := New("btree")
	n := 1 << levels
	prev := make([]string, n)
	for i := 0; i < n; i++ {
		prev[i] = inputName(i)
		mustAddInput(c, prev[i])
	}
	id := 0
	for len(prev) > 1 {
		next := make([]string, len(prev)/2)
		for i := range next {
			name := gateName(id)
			id++
			mustAddGate(c, name, "nand2", prev[2*i], prev[2*i+1])
			next[i] = name
		}
		prev = next
	}
	mustMarkOutput(c, prev[0])
	return c
}

// RippleAdder returns an n-bit ripple-carry adder built from
// XOR/AND/OR gates (nine gates per full adder, using two-input cells
// only). Inputs a0..a(n-1), b0..b(n-1) and cin; outputs s0..s(n-1) and
// cout. The carry chain makes it the classic deep, heavily
// reconvergent structure: every sum bit shares the whole carry prefix,
// which maximally stresses the independence assumption of the paper's
// statistical model (see the canonical-SSTA comparisons).
func RippleAdder(n int) *Circuit {
	if n < 1 {
		panic("netlist: RippleAdder needs at least one bit")
	}
	c := New("rca" + itoa(n))
	for i := 0; i < n; i++ {
		mustAddInput(c, "a"+itoa(i))
		mustAddInput(c, "b"+itoa(i))
	}
	mustAddInput(c, "cin")
	carry := "cin"
	for i := 0; i < n; i++ {
		a, b := "a"+itoa(i), "b"+itoa(i)
		axb := "axb" + itoa(i)
		mustAddGate(c, axb, "xor2", a, b)
		s := "s" + itoa(i)
		mustAddGate(c, s, "xor2", axb, carry)
		mustMarkOutput(c, s)
		andAB := "ab" + itoa(i)
		mustAddGate(c, andAB, "and2", a, b)
		andXC := "xc" + itoa(i)
		mustAddGate(c, andXC, "and2", axb, carry)
		cnext := "c" + itoa(i+1)
		mustAddGate(c, cnext, "or2", andAB, andXC)
		carry = cnext
	}
	mustMarkOutput(c, carry)
	return c
}

func gateName(i int) string  { return "g" + itoa(i) }
func inputName(i int) string { return "i" + itoa(i) }

// itoa is a minimal non-negative integer formatter kept local to avoid
// pulling strconv into the hot construction path of large generators.
func itoa(i int) string {
	var buf [20]byte
	return string(appendItoa(buf[:0], i))
}

// appendItoa appends the decimal digits of the non-negative i to b.
func appendItoa(b []byte, i int) []byte {
	if i == 0 {
		return append(b, '0')
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return append(b, buf[pos:]...)
}

func mustAddInput(c *Circuit, name string) {
	if _, err := c.AddInput(name); err != nil {
		panic(err)
	}
}

func mustAddGate(c *Circuit, name, typ string, fanin ...string) {
	if _, err := c.AddGate(name, typ, fanin...); err != nil {
		panic(err)
	}
}

func mustMarkOutput(c *Circuit, name string) {
	if err := c.MarkOutput(name); err != nil {
		panic(err)
	}
}
