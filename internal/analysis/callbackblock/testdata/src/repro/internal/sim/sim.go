// Package sim is a fixture stub exposing the blocking surface of the
// simulation runtime that callbackblock recognizes.
package sim

type Duration int64

type Proc struct{}

func (p *Proc) Sleep(d Duration) {}

type Cond struct{}

func (c *Cond) Wait()                       {}
func (c *Cond) WaitTimeout(d Duration) bool { return false }

type Resource struct{}

func (r *Resource) Acquire(n int)   {}
func (r *Resource) Hold(d Duration) {}
func (r *Resource) Use(d Duration)  {}
