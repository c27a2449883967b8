package sim

import "errors"

var errBad = errors.New("schedule does not verify")

// Verify checks one schedule; its error is the verification outcome.
func Verify(ok bool) error {
	if !ok {
		return errBad
	}
	return nil
}

// Check drops the verification outcome on the floor.
func Check() {
	Verify(true) // want "unchecked-engine-err"
}

// CheckBlank discards it through the blank identifier.
func CheckBlank() {
	_ = Verify(true) // want "unchecked-engine-err"
}

// CheckRight routes the error to its caller.
func CheckRight() error {
	return Verify(true)
}

// CheckQuiet is the suppressed twin.
func CheckQuiet() {
	Verify(true) //lint:ignore unchecked-engine-err fixture: suppressed dropped verification
}

// Schedule is an executable, verified schedule.
type Schedule struct{}

// Unverified is a schedule that cannot execute until Verify proves it.
type Unverified struct{}

// Verify proves the schedule; the error is the verification outcome.
func (u *Unverified) Verify() (*Schedule, error) { return &Schedule{}, nil }

// Promote takes the schedule and drops the proof's outcome.
func Promote(u *Unverified) *Schedule {
	s, _ := u.Verify() // want "unchecked-engine-err"
	return s
}

// PromoteRight routes the outcome to its caller.
func PromoteRight(u *Unverified) (*Schedule, error) {
	return u.Verify()
}
