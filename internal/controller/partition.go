package controller

import (
	"slices"
	"sort"

	"iotsec/internal/policy"
)

// InteractionEdge weights how often two devices interact (explicitly
// or through the environment) — the signal §5.1 proposes partitioning
// on.
type InteractionEdge struct {
	A, B   string
	Weight float64
}

// Partitioning assigns devices to local controllers so that
// frequently interacting devices share one, minimizing traffic that
// must escalate to the global controller.
type Partitioning struct {
	// Groups lists the device sets, one per local controller.
	Groups [][]string
	// devices lists every partitioned device, sorted and duplicate-free;
	// group[i] is devices[i]'s group index.
	devices []string
	group   []int32
	// CutWeight sums edge weights crossing partitions.
	CutWeight float64
	// InternalWeight sums edge weights kept local.
	InternalWeight float64
}

// GroupOf reports a device's partition (-1 if unknown).
func (p *Partitioning) GroupOf(device string) int {
	if i, ok := slices.BinarySearch(p.devices, device); ok {
		return int(p.group[i])
	}
	return -1
}

// SameGroup reports whether two devices share a local controller.
func (p *Partitioning) SameGroup(a, b string) bool {
	ga := p.GroupOf(a)
	return ga >= 0 && ga == p.GroupOf(b)
}

// Partition greedily merges the heaviest edges first (Kruskal-style
// with a size cap): devices joined by heavy interaction end up
// together unless the group would exceed maxGroupSize. An edge naming a
// device not in devices joins nothing. When devices is already sorted
// and duplicate-free, the result keeps that slice, so the caller must
// not modify it afterwards.
func Partition(devices []string, edges []InteractionEdge, maxGroupSize int) *Partitioning {
	if maxGroupSize <= 0 {
		maxGroupSize = 8
	}
	// The union-find runs over device ordinals, the positions in devices;
	// ordinal maps each name to its first one only while it runs.
	ordinal := make(map[string]int32, len(devices))
	parent := make([]int32, len(devices))
	size := make([]int32, len(devices))
	for i, d := range devices {
		parent[i], size[i] = int32(i), 1
		if first, repeated := ordinal[d]; repeated {
			parent[i] = first // a repeated name is the same device
			continue
		}
		ordinal[d] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	order := make([]int32, len(edges))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(i, j int) bool { return edges[order[i]].Weight > edges[order[j]].Weight })

	for _, i := range order {
		a, okA := ordinal[edges[i].A]
		b, okB := ordinal[edges[i].B]
		if !okA || !okB {
			continue
		}
		ra, rb := find(a), find(b)
		if ra == rb || int(size[ra]+size[rb]) > maxGroupSize {
			continue
		}
		parent[rb] = ra
		size[ra] += size[rb]
	}

	// Number the groups in order of first appearance, reusing size as
	// root → group index + 1.
	p := &Partitioning{devices: policy.SortedSet(devices)}
	clear(size)
	for i, d := range devices {
		root := find(int32(i))
		if size[root] == 0 {
			p.Groups = append(p.Groups, nil)
			size[root] = int32(len(p.Groups))
		}
		idx := int(size[root] - 1)
		p.Groups[idx] = append(p.Groups[idx], d)
	}
	p.group = make([]int32, len(p.devices))
	for i, d := range p.devices {
		p.group[i] = size[find(ordinal[d])] - 1
	}
	for i := range p.Groups {
		sort.Strings(p.Groups[i])
	}
	for _, e := range edges {
		if p.SameGroup(e.A, e.B) {
			p.InternalWeight += e.Weight
		} else {
			p.CutWeight += e.Weight
		}
	}
	return p
}

// LocalityRatio reports the fraction of interaction weight handled
// locally (1.0 = everything local).
func (p *Partitioning) LocalityRatio() float64 {
	total := p.InternalWeight + p.CutWeight
	if total == 0 {
		return 1
	}
	return p.InternalWeight / total
}
