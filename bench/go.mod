module gosmr/bench

go 1.24

require gosmr v0.0.0

replace gosmr => ../
