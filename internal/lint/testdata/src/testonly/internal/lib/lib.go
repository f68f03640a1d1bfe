package lib

// Shared is used by another package's non-test code.
func Shared() int { return inner() }

// Inner is used only inside this package's non-test code.
func Inner() int { return 2 }

func inner() int { return Inner() }

// OnlyTested is called from lib_test.go alone.
func OnlyTested() int { return OnlyTested() } // want `exported func OnlyTested is referenced only by tests`

// Unused is referenced by nothing.
var Unused = 3 // want `exported var Unused is referenced only by tests`

// Limit is referenced only by tests.
const Limit = 4 // want `exported const Limit is referenced only by tests`

// T is used by app; only its methods differ.
type T struct{}

// String implements fmt.Stringer, so fmt reaches it.
func (T) String() string { return "t" }

// Helper is called from lib_test.go alone.
func (*T) Helper() {} // want `exported method \(\*T\)\.Helper is referenced only by tests`

// Loop refers to itself only, which does not count.
type Loop struct{ next *Loop } // want `exported type Loop is referenced only by tests`

// Waived is shared by the tests of several packages.
//
//lint:testhelper the test packages of lib and app both call it
func Waived() {}

//lint:testhelper
func NoReason() {} // want `//lint:testhelper waiver on NoReason needs a reason`

//lint:testhelper stale: app calls it
func Stale() {} // want `Stale is waived with //lint:testhelper but non-test code uses it`
