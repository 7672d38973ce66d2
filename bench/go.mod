module rsskv/bench

go 1.22

require rsskv v0.0.0

replace rsskv => ../
