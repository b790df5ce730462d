// Package ucx is a clean gated fixture: the provider-neutral middleware
// imports only the SPI, so the analyzer must stay silent.
package ucx

import "repro/internal/xport"

type Transport struct{ Rails []xport.Endpoint }
