package collective

import (
	"fmt"

	"ccube/internal/schedcheck"
)

// Unverified is a schedule that has been assembled (Assemble) or repaired
// (RepairSchedule) but not yet proven correct. It has no execution methods:
// the only way to an executable *Schedule is Verify, so an unverified
// schedule can never reach the DES engine — the compile → verify → lower
// discipline, enforced by the type system.
type Unverified struct {
	s *Schedule
	// base is the verified schedule a repair patched, with the patch that
	// relates the two; nil for assembled schedules.
	base  *Schedule
	patch *PatchReport
}

// Program lowers the unverified schedule into the static verifier's IR, for
// checker tests and fuzzing that inspect or tamper with the raw ops.
func (u *Unverified) Program() *schedcheck.Program { return u.s.Program() }

// Verify proves the schedule and returns it as an executable *Schedule
// stamped against the current topology. A repair is checked against the
// verified base it came from by delta verification (schedcheck.CheckPatch);
// a repair that changed nothing is the base's proof unchanged and is only
// restamped. An assembled schedule gets the full static verifier
// (Validate).
func (u *Unverified) Verify() (*Schedule, error) {
	switch {
	case u.base == nil:
		if err := u.s.Validate(); err != nil {
			return nil, fmt.Errorf("collective: assembled schedule failed verification: %w", err)
		}
	case len(u.patch.Touched) > 0:
		r := schedcheck.CheckPatch(u.s.Program(), &schedcheck.PatchSpec{
			Base:     u.base.Program(),
			OldToNew: u.patch.OldToNew,
			Touched:  u.patch.Touched,
		})
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("collective: patched schedule failed delta verification: %w", err)
		}
	}
	u.s.stamp()
	return u.s, nil
}
