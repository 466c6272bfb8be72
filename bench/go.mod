module iotsec/bench

go 1.22

require iotsec v0.0.0

replace iotsec => ../
