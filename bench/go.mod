module cwatrace/bench

go 1.24

require cwatrace v0.0.0

replace cwatrace => ../
