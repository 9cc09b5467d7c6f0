module unchained/bench

go 1.22

require unchained v0.0.0

replace unchained => ../
