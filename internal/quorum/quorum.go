// Package quorum provides the threshold arithmetic of optimally resilient
// Byzantine storage (S = 3t+1, quorums of size 2t+1, certification threshold
// t+1) and the object-set partitions used by the paper's two lower-bound
// constructions:
//
//   - the four-block partition B1..B4 of the read lower bound (Section 3,
//     Proposition 1), and
//   - the 2k+2-block partition B0..B_{k+1}, C1..Ck with superblocks M_l, P_l
//     and C_l of the write lower bound (Section 4, Lemma 1), together with
//     the cardinality equations (1)–(3).
package quorum

import (
	"fmt"

	"robustatomic/internal/recurrence"
)

// Thresholds collects the reply-count thresholds of an optimally resilient
// configuration.
type Thresholds struct {
	S int // number of storage objects
	T int // tolerated Byzantine objects
}

// NewThresholds validates and returns the thresholds for S objects and t
// faults. It returns an error when S < 3t+1 (below optimal resilience no
// robust implementation exists, by [MAD02]).
func NewThresholds(s, t int) (Thresholds, error) {
	if t < 0 {
		return Thresholds{}, fmt.Errorf("quorum: negative fault budget t=%d", t)
	}
	if s < 3*t+1 {
		return Thresholds{}, fmt.Errorf("quorum: S=%d below optimal resilience 3t+1=%d", s, 3*t+1)
	}
	return Thresholds{S: s, T: t}, nil
}

// Quorum is the number of replies a round can always wait for: S − t.
func (th Thresholds) Quorum() int { return th.S - th.T }

// Certify is the exact-match certification threshold t+1: any set of t+1
// distinct objects reporting the same pair contains a correct one, so the
// pair genuinely originates from a client.
func (th Thresholds) Certify() int { return th.T + 1 }

// Refute is the refutation threshold 2t+1: if 2t+1 distinct objects report
// w.ts below some level, at least t+1 of them are correct, so no write at
// that level has completed on t+1 correct objects.
func (th Thresholds) Refute() int { return 2*th.T + 1 }

// Majority is the crash-model majority ⌊S/2⌋+1 used by the ABD baseline.
func (th Thresholds) Majority() int { return th.S/2 + 1 }

// OptimalObjects returns the optimal-resilience object count 3t+1.
func OptimalObjects(t int) int { return 3*t + 1 }

// --- Proposition 1 partition (read lower bound) ---------------------------

// Prop1Partition is the partition of the object set into four blocks used by
// the read lower bound: |B1| = |B2| = |B3| = t and 1 ≤ |B4| ≤ t, S ≤ 4t.
type Prop1Partition struct {
	T      int
	Blocks [4][]int // object indices (1-based), Blocks[j] is B_{j+1}
}

// NewProp1Partition partitions objects 1..S for a fault budget t. It returns
// an error unless 3t+1 ≤ S ≤ 4t and t ≥ 1 (the proposition's premises).
func NewProp1Partition(s, t int) (*Prop1Partition, error) {
	if t < 1 {
		return nil, fmt.Errorf("quorum: Proposition 1 needs t ≥ 1, got %d", t)
	}
	if s > 4*t {
		return nil, fmt.Errorf("quorum: Proposition 1 needs S ≤ 4t (S=%d, 4t=%d)", s, 4*t)
	}
	if s < 3*t+1 {
		return nil, fmt.Errorf("quorum: S=%d below optimal resilience %d", s, 3*t+1)
	}
	p := &Prop1Partition{T: t}
	next := 1
	take := func(n int) []int {
		ids := make([]int, 0, n)
		for i := 0; i < n; i++ {
			ids = append(ids, next)
			next++
		}
		return ids
	}
	p.Blocks[0] = take(t)
	p.Blocks[1] = take(t)
	p.Blocks[2] = take(t)
	p.Blocks[3] = take(s - 3*t) // 1 ≤ |B4| ≤ t
	return p, nil
}

// Block returns B_j (1-based, j ∈ 1..4).
func (p *Prop1Partition) Block(j int) []int {
	if j < 1 || j > 4 {
		panic(fmt.Sprintf("quorum: Prop1 block %d out of range", j))
	}
	return p.Blocks[j-1]
}

// S returns the partitioned object count.
func (p *Prop1Partition) S() int {
	return len(p.Blocks[0]) + len(p.Blocks[1]) + len(p.Blocks[2]) + len(p.Blocks[3])
}

// --- Lemma 1 partition (write lower bound) ---------------------------------

// BlockName identifies a block of the Lemma 1 partition: {B, 0..k+1} or
// {C, 1..k}.
type BlockName struct {
	Family byte // 'B' or 'C'
	Index  int
}

// String implements fmt.Stringer.
func (b BlockName) String() string { return fmt.Sprintf("%c%d", b.Family, b.Index) }

// B returns the name of block B_i.
func B(i int) BlockName { return BlockName{Family: 'B', Index: i} }

// C returns the name of block C_i.
func C(i int) BlockName { return BlockName{Family: 'C', Index: i} }

// Lemma1Partition is the 2k+2-block partition of Section 4: blocks
// B_0..B_{k+1} with |∪B_j| = 2·t_k + 1 and C_1..C_k with |∪C_j| = t_k,
// hence S = 3·t_k + 1. Block sizes follow the paper:
//
//	|B_0| = 1, |B_l| = t_l − t_{l−2} (1 ≤ l ≤ k), |B_{k+1}| = t_k − t_{k−1},
//	|C_l| = t_{l−1} − t_{l−2} (1 ≤ l ≤ k−1), |C_k| = t_k − t_{k−2}.
//
// C_1 is always empty. The scale factor c ≥ 1 multiplies every block size,
// giving the generalized resilience S' = 3·c·t_k + c of Proposition 2.
type Lemma1Partition struct {
	K     int
	Scale int
	tk    int64
	sizes map[BlockName]int
	objs  map[BlockName][]int
	order []BlockName
}

// NewLemma1Partition builds the partition for k ≥ 1 write rounds at scale 1.
func NewLemma1Partition(k int) (*Lemma1Partition, error) {
	return NewScaledLemma1Partition(k, 1)
}

// NewScaledLemma1Partition builds the partition with every block multiplied
// by c (the Proposition 2 generalization). It returns an error for k < 1,
// k > 16 (object counts explode as 2^k) or c < 1.
func NewScaledLemma1Partition(k, c int) (*Lemma1Partition, error) {
	if k < 1 {
		return nil, fmt.Errorf("quorum: Lemma 1 needs k ≥ 1, got %d", k)
	}
	if k > 16 {
		return nil, fmt.Errorf("quorum: k=%d too large to materialize (S = 3·t_k+1 ≈ 2^%d)", k, k+2)
	}
	if c < 1 {
		return nil, fmt.Errorf("quorum: scale must be ≥ 1, got %d", c)
	}
	t := func(i int) int { return int(recurrence.T(i)) }
	p := &Lemma1Partition{
		K:     k,
		Scale: c,
		tk:    recurrence.T(k),
		sizes: make(map[BlockName]int, 2*k+2),
		objs:  make(map[BlockName][]int, 2*k+2),
	}
	p.sizes[B(0)] = 1
	for l := 1; l <= k; l++ {
		p.sizes[B(l)] = t(l) - t(l-2)
	}
	p.sizes[B(k+1)] = t(k) - t(k-1)
	for l := 1; l <= k-1; l++ {
		p.sizes[C(l)] = t(l-1) - t(l-2)
	}
	p.sizes[C(k)] = t(k) - t(k-2)

	// Assign concrete object ids in a fixed, documented order: B_0..B_{k+1}
	// then C_1..C_k, each scaled by c.
	next := 1
	for l := 0; l <= k+1; l++ {
		p.order = append(p.order, B(l))
	}
	for l := 1; l <= k; l++ {
		p.order = append(p.order, C(l))
	}
	for _, name := range p.order {
		n := p.sizes[name] * c
		ids := make([]int, 0, n)
		for i := 0; i < n; i++ {
			ids = append(ids, next)
			next++
		}
		p.objs[name] = ids
	}
	return p, nil
}

// Faults returns the construction's Byzantine budget c·t_k.
func (p *Lemma1Partition) Faults() int { return p.Scale * int(p.tk) }

// S returns the total object count 3·c·t_k + c.
func (p *Lemma1Partition) S() int { return 3*p.Faults() + p.Scale }

// Size returns |BL| at scale 1 (the paper's block size).
func (p *Lemma1Partition) Size(name BlockName) int {
	n, ok := p.sizes[name]
	if !ok {
		panic(fmt.Sprintf("quorum: unknown block %s for k=%d", name, p.K))
	}
	return n
}

// Objects returns the (scaled) object ids of a block. The returned slice is
// shared; callers must not mutate it.
func (p *Lemma1Partition) Objects(name BlockName) []int {
	ids, ok := p.objs[name]
	if !ok {
		panic(fmt.Sprintf("quorum: unknown block %s for k=%d", name, p.K))
	}
	return ids
}

// BlockNames returns all block names in their canonical order.
func (p *Lemma1Partition) BlockNames() []BlockName {
	out := make([]BlockName, len(p.order))
	copy(out, p.order)
	return out
}

// --- Superblocks -----------------------------------------------------------

// Malicious returns superblock M_l = {B_j | 0 ≤ j ≤ l} ∪ {C_j | 1 ≤ j ≤ l}
// for −1 ≤ l ≤ k−1. M_{−1} is empty. Equation (1): |∪M_l| = t_{l+1}.
func (p *Lemma1Partition) Malicious(l int) []BlockName {
	if l < -1 || l > p.K-1 {
		panic(fmt.Sprintf("quorum: M_%d out of range [-1, %d]", l, p.K-1))
	}
	var out []BlockName
	for j := 0; j <= l; j++ {
		out = append(out, B(j))
	}
	for j := 1; j <= l; j++ {
		out = append(out, C(j))
	}
	return out
}

// Parity returns superblock P_l = {B_j | l ≤ j ≤ k+1 ∧ j ≡ l (mod 2)} for
// 1 ≤ l ≤ k+1. Equation (2): |∪P_l| = t_k − t_{l−2}.
func (p *Lemma1Partition) Parity(l int) []BlockName {
	if l < 1 || l > p.K+1 {
		panic(fmt.Sprintf("quorum: P_%d out of range [1, %d]", l, p.K+1))
	}
	var out []BlockName
	for j := l; j <= p.K+1; j++ {
		if j%2 == l%2 {
			out = append(out, B(j))
		}
	}
	return out
}

// CorrectSB returns superblock C_l = {C_j | l ≤ j ≤ k} for 1 ≤ l ≤ k.
// Equation (3): |∪C_l| = t_k − t_{l−2}.
func (p *Lemma1Partition) CorrectSB(l int) []BlockName {
	if l < 1 || l > p.K {
		panic(fmt.Sprintf("quorum: superblock C_%d out of range [1, %d]", l, p.K))
	}
	var out []BlockName
	for j := l; j <= p.K; j++ {
		out = append(out, C(j))
	}
	return out
}

// Union returns the object ids of a set of blocks, in canonical order.
func (p *Lemma1Partition) Union(blocks []BlockName) []int {
	n := 0
	for _, b := range blocks {
		n += len(p.Objects(b))
	}
	out := make([]int, 0, n)
	for _, b := range blocks {
		out = append(out, p.Objects(b)...)
	}
	return out
}

// UnionSize returns |∪blocks| at the partition's scale.
func (p *Lemma1Partition) UnionSize(blocks []BlockName) int {
	n := 0
	for _, b := range blocks {
		n += len(p.Objects(b))
	}
	return n
}

// Complement returns all object ids not contained in the given blocks.
func (p *Lemma1Partition) Complement(blocks []BlockName) []int {
	in := make(map[int]bool, p.S())
	for _, b := range blocks {
		for _, id := range p.Objects(b) {
			in[id] = true
		}
	}
	out := make([]int, 0, p.S()-len(in))
	for id := 1; id <= p.S(); id++ {
		if !in[id] {
			out = append(out, id)
		}
	}
	return out
}
