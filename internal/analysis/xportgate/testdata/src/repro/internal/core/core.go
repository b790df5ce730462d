// Package core is a gated fixture: an aliased direct backend import, a
// one-hop leak through helper, a two-hop leak through deep -> deeper,
// and sanctioned imports (the SPI, the gated middleware, and a boundary
// package).
package core

import (
	verbs "repro/internal/ibv" // want "imports concrete backend repro/internal/ibv"

	"repro/internal/deep"   // want "reaches concrete backend repro/internal/xport/verbs via repro/internal/deep -> repro/internal/deeper -> repro/internal/xport/verbs"
	"repro/internal/helper" // want "reaches concrete backend repro/internal/xport/shm via repro/internal/helper -> repro/internal/xport/shm"
	"repro/internal/mpi"
	"repro/internal/ucx"
	"repro/internal/xport"
)

func Use(ep xport.Endpoint) int {
	qp := verbs.QP{Num: 1}
	_ = mpi.Register()
	_ = ucx.Transport{Rails: []xport.Endpoint{ep}}
	return int(qp.Num) + len(helper.Providers()) + deep.Chain()
}
