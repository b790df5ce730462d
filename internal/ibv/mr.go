package ibv

import "fmt"

// PD is a protection domain: memory regions and queue pairs created in one
// PD cannot be used with objects from another.
type PD struct {
	ctx *Context
}

// Context returns the device context owning the PD.
func (pd *PD) Context() *Context { return pd.ctx }

// MR is a registered memory region. Registration pins a Go byte slice and
// assigns it a synthetic virtual address plus local and remote keys, so
// RDMA operations carry (addr, rkey) exactly as on hardware.
type MR struct {
	pd    *PD
	buf   []byte
	addr  uint64
	lkey  uint32
	rkey  uint32
	valid bool
}

// RegMR registers buf for local and remote access, as ibv_reg_mr with
// LOCAL_WRITE|REMOTE_WRITE would.
func (pd *PD) RegMR(buf []byte) (*MR, error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("ibv: cannot register empty buffer")
	}
	h := pd.ctx.hca
	mr := &MR{
		pd:    pd,
		buf:   buf,
		addr:  h.nextAddr,
		lkey:  h.nextKey,
		rkey:  h.nextKey + 1,
		valid: true,
	}
	// Space regions so that off-by-one addressing cannot silently land in
	// a neighbouring registration.
	h.nextAddr += uint64(len(buf)) + 1<<20
	h.nextKey += 2
	h.mrs = append(h.mrs, mr)
	return mr, nil
}

// Dereg deregisters the region; subsequent local or remote use fails.
func (mr *MR) Dereg() error {
	if !mr.valid {
		return ErrDeregistered
	}
	mr.valid = false
	h := mr.pd.ctx.hca
	h.mrs[(mr.lkey-1)/2] = nil
	if h.lastMR == mr {
		h.lastMR = nil
	}
	return nil
}

// PD returns the protection domain the region was registered in.
func (mr *MR) PD() *PD { return mr.pd }

// Addr returns the region's virtual base address.
func (mr *MR) Addr() uint64 { return mr.addr }

// LKey returns the local access key.
func (mr *MR) LKey() uint32 { return mr.lkey }

// RKey returns the remote access key.
func (mr *MR) RKey() uint32 { return mr.rkey }

// Len returns the registered length in bytes.
func (mr *MR) Len() int { return len(mr.buf) }

// Bytes returns the registered memory itself. The application owns this
// memory (registration only pins it), so handing out the slice mirrors
// reality; bounds discipline still applies to all remote access.
func (mr *MR) Bytes() []byte { return mr.buf }

// slice maps an (addr, length) range to the backing bytes, enforcing
// bounds. The boolean is false if the range escapes the region.
func (mr *MR) slice(addr uint64, length int) ([]byte, bool) {
	if !mr.valid || length < 0 {
		return nil, false
	}
	if addr < mr.addr {
		return nil, false
	}
	off := addr - mr.addr
	if off > uint64(len(mr.buf)) || uint64(length) > uint64(len(mr.buf))-off {
		return nil, false
	}
	return mr.buf[off : off+uint64(length)], true
}

// SGE is a scatter/gather element: a range of a local MR identified by its
// base address, length, and local key.
type SGE struct {
	Addr   uint64
	Length int
	LKey   uint32
	// mr is the region SGEFor built the element from; nil for a literal,
	// which resolves by key alone. Every adapter hands out the same keys
	// and addresses, so a key cannot tell another adapter's region from a
	// local one: resolveSGE checks the recorded region instead.
	mr *MR
}

// SGEFor is the element covering buf[off : off+length] of the region.
func (mr *MR) SGEFor(off, length int) SGE {
	return SGE{Addr: mr.addr + uint64(off), Length: length, LKey: mr.lkey, mr: mr}
}

// resolveSGE validates an SGE against the PD and returns its bytes. The
// lkey must name a live MR of this PD exactly: an rkey, another PD's lkey
// or a region registered on another adapter is rejected.
func (pd *PD) resolveSGE(sge SGE) ([]byte, error) {
	mr := sge.mr
	if mr == nil {
		mr = pd.ctx.hca.mrAt(sge.LKey)
	}
	if mr == nil || mr.lkey != sge.LKey || mr.pd != pd || !mr.valid {
		return nil, ErrBadLKey
	}
	b, ok := mr.slice(sge.Addr, sge.Length)
	if !ok {
		return nil, ErrMRBounds
	}
	return b, nil
}
