module rmp/bench

go 1.22

require rmp v0.0.0

replace rmp => ../
