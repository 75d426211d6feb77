module pap/bench

go 1.22

require pap v0.0.0

replace pap => ../
