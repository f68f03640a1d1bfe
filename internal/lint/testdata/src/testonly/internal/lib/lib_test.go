package lib

func useAll() {
	_ = OnlyTested() + Unused + Limit
	new(T).Helper()
	_ = Loop{}
	Waived()
	NoReason()
}
