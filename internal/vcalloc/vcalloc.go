// Package vcalloc implements the two virtual-channel allocation policies the
// paper evaluates (§5):
//
//   - Dynamic VA chooses an output VC by buffer availability at the
//     downstream router (the conventional policy).
//   - Static VA chooses the output VC from the destination ID of the
//     communication, so flows sharing a path suffix share VCs — and
//     therefore pseudo-circuits — in every router along it. This is the
//     paper's adaptation of static VC allocation (Shim et al.), keyed by
//     destination only "in order to increase reusability".
//
// Routing algorithms that need multiple VC classes for deadlock freedom
// (O1TURN splits VCs between an XY and a YX class) partition the VC space;
// both policies then allocate within the packet's class partition.
package vcalloc

import "fmt"

// Policy selects the allocation policy.
type Policy int

const (
	// Dynamic picks the free candidate VC with the most downstream credits.
	Dynamic Policy = iota
	// Static derives the VC from the packet destination (paper §5).
	Static
)

func (p Policy) String() string {
	switch p {
	case Dynamic:
		return "dynamicVA"
	case Static:
		return "staticVA"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// StaticKey selects the hash key for static VA (DESIGN.md ablation).
type StaticKey int

const (
	// KeyDestination keys static VA by destination node only (the paper's
	// choice, maximizing reuse on shared path suffixes).
	KeyDestination StaticKey = iota
	// KeyFlow keys static VA by (source, destination) pairs (Shim et al.
	// style per-flow allocation; the ablation baseline).
	KeyFlow
)

// Allocator maps packets to candidate VCs at every input port.
type Allocator struct {
	policy     Policy
	key        StaticKey
	numVCs     int
	numClasses int
	nodes      int
}

// New builds an allocator for numVCs virtual channels split evenly across
// numClasses routing classes, in a network with nodes terminals.
func New(policy Policy, numVCs, numClasses, nodes int) *Allocator {
	if numClasses < 1 || numVCs < numClasses || numVCs%numClasses != 0 {
		panic(fmt.Sprintf("vcalloc: %d VCs not divisible across %d classes", numVCs, numClasses))
	}
	return &Allocator{policy: policy, numVCs: numVCs, numClasses: numClasses, nodes: nodes}
}

// WithStaticKey sets the static-VA hash key (default KeyDestination) and
// returns the allocator for chaining.
func (a *Allocator) WithStaticKey(k StaticKey) *Allocator {
	a.key = k
	return a
}

// ClassRange returns the half-open VC index range [lo, hi) belonging to a
// routing class.
func (a *Allocator) ClassRange(class int) (lo, hi int) {
	if class < 0 || class >= a.numClasses {
		panic(fmt.Sprintf("vcalloc: class %d out of range [0,%d)", class, a.numClasses))
	}
	per := a.numVCs / a.numClasses
	return class * per, (class + 1) * per
}

// StaticVC returns the single VC a packet (src → dst) in the given class may
// use under static VA.
func (a *Allocator) StaticVC(src, dst, class int) int {
	lo, hi := a.ClassRange(class)
	per := hi - lo
	k := dst
	if a.key == KeyFlow {
		// Mix with a prime so the source still matters when the node count
		// is a multiple of the per-class VC count.
		k = src*1009 + dst
	}
	return lo + k%per
}

// Pick chooses an output VC for a packet (src → dst, routing class class)
// given the downstream VC occupancy and credit state. busy[v] reports the
// downstream input VC v is allocated to another in-flight packet; credits[v]
// is its free buffer count, stored as wide as a buffer is deep. It returns -1
// when no VC can be allocated this cycle.
func (a *Allocator) Pick(src, dst, class int, busy []bool, credits []int16) int {
	if a.policy == Static {
		v := a.StaticVC(src, dst, class)
		if !busy[v] {
			return v
		}
		return -1
	}
	lo, hi := a.ClassRange(class)
	best, bestCred := -1, int16(-1)
	for v := lo; v < hi; v++ {
		if busy[v] {
			continue
		}
		if credits[v] > bestCred {
			best, bestCred = v, credits[v]
		}
	}
	return best
}
