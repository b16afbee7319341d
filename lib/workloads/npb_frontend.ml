let sources =
  [
    ( "arc_distance",
      {|
      program arc_distance
      symbol N
      input  f64 t1[N]
      input  f64 p1[N]
      input  f64 t2[N]
      input  f64 p2[N]
      output f64 dist[N]
      map i = 0 to N-1 {
        dist[i] = sin((t2[i] - t1[i]) / 2.0) ** 2.0
                  + cos(t1[i]) * cos(t2[i]) * sin((p2[i] - p1[i]) / 2.0) ** 2.0
      }
    |} );
    ( "compute",
      {|
      program compute
      symbol N
      input  f64 a[N, N]
      input  f64 b[N, N]
      input  f64 c[N, N]
      output f64 res[N, N]
      map i = 0 to N-1, j = 0 to N-1 {
        res[i, j] = select(a[i, j] > 0.5, a[i, j] * b[i, j] - c[i, j], tanh(a[i, j]))
      }
    |} );
    ( "gesummv",
      {|
      program gesummv
      symbol N
      input  f64 alpha
      input  f64 beta
      input  f64 A[N, N]
      input  f64 B[N, N]
      input  f64 x[N]
      output f64 y[N]
      temp   f64 t1[N]
      temp   f64 t2[N]
      map i = 0 to N-1, j = 0 to N-1 { t1[i] += A[i, j] * x[j] }
      map i = 0 to N-1, j = 0 to N-1 { t2[i] += B[i, j] * x[j] }
      map i = 0 to N-1 { y[i] = alpha * t1[i] + beta * t2[i] }
    |} );
    ( "syrk",
      {|
      program syrk
      symbol N
      input  f64 alpha
      input  f64 beta
      input  f64 A[N, N]
      inout  f64 C[N, N]
      map i = 0 to N-1, j = 0 to N-1 { C[i, j] = beta * C[i, j] }
      map i = 0 to N-1, j = 0 to N-1, k = 0 to N-1 {
        C[i, j] += alpha * A[i, k] * A[j, k]
      }
    |} );
    ( "syr2k",
      {|
      program syr2k
      symbol N
      input  f64 alpha
      input  f64 beta
      input  f64 A[N, N]
      input  f64 B[N, N]
      inout  f64 C[N, N]
      map i = 0 to N-1, j = 0 to N-1 { C[i, j] = beta * C[i, j] }
      map i = 0 to N-1, j = 0 to N-1, k = 0 to N-1 {
        C[i, j] += alpha * (A[i, k] * B[j, k] + B[i, k] * A[j, k])
      }
    |} );
    ( "trisolv",
      {|
      program trisolv
      symbol N
      input  f64 L[N, N]
      input  f64 b[N]
      output f64 x[N]
      temp   f64 acc
      for i = 0 to N-1 {
        acc = 0.0
        map j = 0 to i-1 { acc += L[i, j] * x[j] }
        x[i] = (b[i] - acc) / (L[i, i] + 1e-9)
      }
    |} );
    ( "floyd_warshall",
      {|
      program floyd_warshall
      symbol N
      inout  f64 dist[N, N]
      for k = 0 to N-1 {
        map i = 0 to N-1, j = 0 to N-1 {
          dist[i, j] min= dist[i, k] + dist[k, j]
        }
      }
    |} );
    ( "hdiff",
      {|
      program hdiff
      symbol N
      input  f64 fin[N, N]
      temp   f64 lap[N, N]
      temp   f64 flx[N, N]
      output f64 fout[N, N]
      map i = 1 to N-2, j = 1 to N-2 {
        lap[i, j] = 4.0 * fin[i, j] - (fin[i-1, j] + fin[i+1, j] + fin[i, j-1] + fin[i, j+1])
      }
      map i = 1 to N-3, j = 1 to N-2 {
        flx[i, j] = lap[i+1, j] - lap[i, j]
      }
      map i = 2 to N-3, j = 1 to N-2 {
        fout[i, j] = fin[i, j] - 0.25 * (flx[i, j] - flx[i-1, j])
      }
    |} );
    ( "heat_3d",
      {|
      program heat_3d
      symbol N, T
      inout  f64 A[N, N, N]
      inout  f64 B[N, N, N]
      for t = 0 to T-1 {
        map i = 1 to N-2, j = 1 to N-2, k = 1 to N-2 {
          B[i, j, k] = 0.125 * (A[i+1, j, k] - 2.0 * A[i, j, k] + A[i-1, j, k])
                     + 0.125 * (A[i, j+1, k] - 2.0 * A[i, j, k] + A[i, j-1, k])
                     + 0.125 * (A[i, j, k+1] - 2.0 * A[i, j, k] + A[i, j, k-1])
                     + A[i, j, k]
        }
        map i = 1 to N-2, j = 1 to N-2, k = 1 to N-2 {
          A[i, j, k] = 0.125 * (B[i+1, j, k] - 2.0 * B[i, j, k] + B[i-1, j, k])
                     + 0.125 * (B[i, j+1, k] - 2.0 * B[i, j, k] + B[i, j-1, k])
                     + 0.125 * (B[i, j, k+1] - 2.0 * B[i, j, k] + B[i, j, k-1])
                     + B[i, j, k]
        }
      }
    |} );
    ( "mlp",
      {|
      program mlp
      symbol N, H
      input  f64 x[N]
      input  f64 W1[H, N]
      input  f64 W2[N, H]
      temp   f64 h1[H]
      temp   f64 h1r[H]
      output f64 out[N]
      map i = 0 to H-1, j = 0 to N-1 { h1[i] += W1[i, j] * x[j] }
      map i = 0 to H-1 { h1r[i] = max(h1[i], 0.0) }
      map i = 0 to N-1, j = 0 to H-1 { out[i] += W2[i, j] * h1r[j] }
    |} );
  ]

let more_sources =
  [
    ( "doitgen",
      {|
      program doitgen
      symbol R, Q, P
      inout  f64 A[R, Q, P]
      input  f64 C4[P, P]
      temp   f64 summ[R, Q, P]
      map r = 0 to R-1, q = 0 to Q-1, p = 0 to P-1, k = 0 to P-1 {
        summ[r, q, p] += A[r, q, k] * C4[k, p]
      }
      map r = 0 to R-1, q = 0 to Q-1, p = 0 to P-1 {
        A[r, q, p] = summ[r, q, p]
      }
    |} );
    ( "correlation",
      {|
      program correlation
      symbol N
      input  f64 data[N, N]
      temp   f64 mean[N]
      temp   f64 stddev[N]
      temp   f64 cent[N, N]
      output f64 corr[N, N]
      map i = 0 to N-1, j = 0 to N-1 { mean[j] += data[i, j] / N }
      map i = 0 to N-1, j = 0 to N-1 { stddev[j] += (data[i, j] - mean[j]) ** 2.0 / N }
      map i = 0 to N-1, j = 0 to N-1 {
        cent[i, j] = (data[i, j] - mean[j]) / sqrt(stddev[j] + 0.1)
      }
      map i = 0 to N-1, j = 0 to N-1, k = 0 to N-1 {
        corr[i, j] += cent[k, i] * cent[k, j] / N
      }
    |} );
    ( "adi_lite",
      {|
      program adi_lite
      symbol N, T
      inout  f64 u[N, N]
      temp   f64 v[N, N]
      for t = 0 to T-1 {
        map i = 1 to N-2, j = 1 to N-2 {
          v[i, j] = 0.25 * (u[i, j-1] + 2.0 * u[i, j] + u[i, j+1])
        }
        map i = 1 to N-2, j = 1 to N-2 {
          u[i, j] = 0.25 * (v[i-1, j] + 2.0 * v[i, j] + v[i+1, j])
        }
      }
    |} );
    ( "lu",
      {|
      program lu
      symbol N
      inout  f64 A[N, N]
      temp   f64 acc
      for i = 0 to N-1 {
        for j = 0 to i-1 {
          acc = 0.0
          map k = 0 to j-1 { acc += A[i, k] * A[k, j] }
          A[i, j] = (A[i, j] - acc) / (A[j, j] + 1e-6)
        }
        for j = i to N-1 {
          acc = 0.0
          map k = 0 to i-1 { acc += A[i, k] * A[k, j] }
          A[i, j] = A[i, j] - acc
        }
      }
    |} );
    ( "gramschmidt",
      {|
      program gramschmidt
      symbol N
      inout  f64 A[N, N]
      output f64 R[N, N]
      temp   f64 nrm
      for k = 0 to N-1 {
        nrm = 0.0
        map i = 0 to N-1 { nrm += A[i, k] * A[i, k] }
        R[k, k] = sqrt(nrm) + 1e-6
        map i = 0 to N-1 { A[i, k] = A[i, k] / (sqrt(nrm) + 1e-6) }
        map j = k+1 to N-1, i = 0 to N-1 { R[k, j] += A[i, k] * A[i, j] }
        map j = k+1 to N-1, i = 0 to N-1 { A[i, j] = A[i, j] - A[i, k] * R[k, j] }
      }
    |} );
    ( "mandelbrot_fixed",
      {|
      program mandelbrot_fixed
      symbol N, T
      input  f64 cr[N, N]
      input  f64 ci[N, N]
      temp   f64 zr[N, N]
      temp   f64 zi[N, N]
      temp   f64 zr2[N, N]
      output f64 inside[N, N]
      for t = 0 to T-1 {
        map i = 0 to N-1, j = 0 to N-1 {
          zr2[i, j] = zr[i, j] * zr[i, j] - zi[i, j] * zi[i, j] + cr[i, j]
        }
        map i = 0 to N-1, j = 0 to N-1 {
          zi[i, j] = 2.0 * zr[i, j] * zi[i, j] + ci[i, j]
        }
        map i = 0 to N-1, j = 0 to N-1 { zr[i, j] = zr2[i, j] }
      }
      map i = 0 to N-1, j = 0 to N-1 {
        inside[i, j] = select(zr[i, j] * zr[i, j] + zi[i, j] * zi[i, j] < 4.0, 1.0, 0.0)
      }
    |} );
  ]

let final_sources =
  [
    ( "cholesky",
      {|
      program cholesky
      symbol N
      inout  f64 A[N, N]
      temp   f64 acc
      for i = 0 to N-1 {
        for j = 0 to i-1 {
          acc = 0.0
          map k = 0 to j-1 { acc += A[i, k] * A[j, k] }
          A[i, j] = (A[i, j] - acc) / (A[j, j] + 1e-6)
        }
        acc = 0.0
        map k = 0 to i-1 { acc += A[i, k] * A[i, k] }
        A[i, i] = sqrt(abs(A[i, i] - acc)) + 1e-6
      }
    |} );
    ( "durbin",
      {|
      program durbin
      symbol N
      input  f64 r[N]
      output f64 y[N]
      temp   f64 z[N]
      temp   f64 alpha
      temp   f64 beta
      temp   f64 summ
      y[0] = 0.0 - r[0]
      beta = 1.0
      alpha = 0.0 - r[0]
      for k = 1 to N-1 {
        beta = (1.0 - alpha * alpha) * beta
        summ = 0.0
        map i = 0 to k-1 { summ += r[k-i-1] * y[i] }
        alpha = 0.0 - (r[k] + summ) / (beta + 1e-6)
        map i = 0 to k-1 { z[i] = y[i] + alpha * y[k-i-1] }
        map i = 0 to k-1 { y[i] = z[i] }
        y[k] = alpha
      }
    |} );
    ( "seidel_2d",
      {|
      program seidel_2d
      symbol N, T
      inout  f64 A[N, N]
      for t = 0 to T-1 {
        for i = 1 to N-2 {
          map j = 1 to N-2 {
            A[i, j] = 0.2 * (A[i, j-1] + A[i, j] + A[i, j+1] + A[i-1, j] + A[i+1, j])
          }
        }
      }
    |} );
    ( "symm",
      {|
      program symm
      symbol N
      input  f64 alpha
      input  f64 beta
      input  f64 A[N, N]
      input  f64 B[N, N]
      inout  f64 C[N, N]
      map i = 0 to N-1, j = 0 to N-1 { C[i, j] = beta * C[i, j] }
      map i = 0 to N-1, j = 0 to N-1, k = 0 to N-1 {
        C[i, j] += alpha * B[k, j] * select(k <= i, A[i, k], A[k, i])
      }
    |} );
    ( "trmm",
      {|
      program trmm
      symbol N
      input  f64 alpha
      input  f64 A[N, N]
      inout  f64 B[N, N]
      temp   f64 acc
      for i = 0 to N-1 {
        for j = 0 to N-1 {
          acc = 0.0
          map k = i+1 to N-1 { acc += A[k, i] * B[k, j] }
          B[i, j] = alpha * (B[i, j] + acc)
        }
      }
    |} );
    ( "lenet_conv",
      {|
      program lenet_conv
      symbol N
      input  f64 img[N, N]
      input  f64 w1[3, 3]
      input  f64 w2[3, 3]
      temp   f64 c1[N, N]
      temp   f64 r1[N, N]
      output f64 c2[N, N]
      map i = 0 to N-3, j = 0 to N-3, ki = 0 to 2, kj = 0 to 2 {
        c1[i, j] += img[i+ki, j+kj] * w1[ki, kj]
      }
      map i = 0 to N-1, j = 0 to N-1 { r1[i, j] = max(c1[i, j], 0.0) }
      map i = 0 to N-3, j = 0 to N-3, ki = 0 to 2, kj = 0 to 2 {
        c2[i, j] += r1[i+ki, j+kj] * w2[ki, kj]
      }
    |} );
    ( "softmax_xent",
      {|
      program softmax_xent
      symbol N
      input  f64 logits[N, N]
      input  f64 labels[N, N]
      temp   f64 rowmax[N]
      temp   f64 e[N, N]
      temp   f64 rowsum[N]
      output f64 loss
      map i = 0 to N-1, j = 0 to N-1 { rowmax[i] max= logits[i, j] }
      map i = 0 to N-1, j = 0 to N-1 { e[i, j] = exp(logits[i, j] - rowmax[i]) }
      map i = 0 to N-1, j = 0 to N-1 { rowsum[i] += e[i, j] }
      map i = 0 to N-1, j = 0 to N-1 {
        loss += 0.0 - labels[i, j] * log(e[i, j] / rowsum[i] + 1e-12) / N
      }
    |} );
  ]

let sources = sources @ more_sources @ final_sources

let all () =
  List.map
    (fun (name, src) ->
      let g = Frontend.Lang.compile src in
      ignore (Sdfg.Validate.check_exn g);
      (name, g))
    sources
