package policy

import "hash/maphash"

// nameIndex maps a name to its position in a list the caller owns: an
// open-addressed, linearly probed table of position+1 (0 marks an empty
// slot), kept at most half full. A slot is 4 bytes and holds no string;
// a lookup compares the listed name.
type nameIndex struct {
	seed  maphash.Seed
	slots []uint32
}

// lookup reports name's position in names, the list the index was
// built over.
func (x *nameIndex) lookup(names []string, name string) (uint32, bool) {
	if len(x.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(x.slots) - 1)
	for i := maphash.String(x.seed, name) & mask; ; i = (i + 1) & mask {
		s := x.slots[i]
		if s == 0 {
			return 0, false
		}
		if names[s-1] == name {
			return s - 1, true
		}
	}
}

// add indexes names[len(names)-1], which the caller has just appended
// and must not already be indexed. Every earlier name is indexed.
func (x *nameIndex) add(names []string) {
	if 2*len(names) > len(x.slots) {
		x.grow(names)
		return
	}
	x.place(names, uint32(len(names)-1))
}

// grow doubles the table (from 8 slots) and indexes every name again.
func (x *nameIndex) grow(names []string) {
	n := max(8, 2*len(x.slots))
	for 2*len(names) > n {
		n *= 2
	}
	if len(x.slots) == 0 {
		x.seed = maphash.MakeSeed()
	}
	x.slots = make([]uint32, n)
	for pos := range names {
		x.place(names, uint32(pos))
	}
}

// place puts position pos in the first empty slot of its probe run.
func (x *nameIndex) place(names []string, pos uint32) {
	mask := uint64(len(x.slots) - 1)
	i := maphash.String(x.seed, names[pos]) & mask
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = pos + 1
}
